#include "common/sparse.h"

#include "common/check.h"
#include "common/rng.h"

namespace ccdb {

RatingDataset::RatingDataset(std::size_t num_items, std::size_t num_users,
                             std::vector<Rating> ratings)
    : num_items_(num_items),
      num_users_(num_users),
      ratings_(std::move(ratings)) {
  double total = 0.0;
  for (const Rating& r : ratings_) {
    CCDB_CHECK_LT(r.item, num_items_);
    CCDB_CHECK_LT(r.user, num_users_);
    total += r.score;
  }
  global_mean_ =
      ratings_.empty() ? 0.0 : total / static_cast<double>(ratings_.size());

  // Counting-sort construction of both CSR indices.
  user_offsets_.assign(num_users_ + 1, 0);
  item_offsets_.assign(num_items_ + 1, 0);
  for (const Rating& r : ratings_) {
    ++user_offsets_[r.user + 1];
    ++item_offsets_[r.item + 1];
  }
  for (std::size_t u = 0; u < num_users_; ++u)
    user_offsets_[u + 1] += user_offsets_[u];
  for (std::size_t m = 0; m < num_items_; ++m)
    item_offsets_[m + 1] += item_offsets_[m];

  user_entries_.resize(ratings_.size());
  item_entries_.resize(ratings_.size());
  std::vector<std::size_t> user_fill(user_offsets_.begin(),
                                     user_offsets_.end() - 1);
  std::vector<std::size_t> item_fill(item_offsets_.begin(),
                                     item_offsets_.end() - 1);
  for (const Rating& r : ratings_) {
    user_entries_[user_fill[r.user]++] = {r.item, r.score};
    item_entries_[item_fill[r.item]++] = {r.user, r.score};
  }
}

std::span<const RatingEntry> RatingDataset::ByUser(std::uint32_t user) const {
  CCDB_CHECK_LT(user, num_users_);
  return {user_entries_.data() + user_offsets_[user],
          user_offsets_[user + 1] - user_offsets_[user]};
}

std::span<const RatingEntry> RatingDataset::ByItem(std::uint32_t item) const {
  CCDB_CHECK_LT(item, num_items_);
  return {item_entries_.data() + item_offsets_[item],
          item_offsets_[item + 1] - item_offsets_[item]};
}

double RatingDataset::ItemMean(std::uint32_t item) const {
  const auto entries = ByItem(item);
  if (entries.empty()) return global_mean_;
  double total = 0.0;
  for (const RatingEntry& e : entries) total += e.score;
  return total / static_cast<double>(entries.size());
}

double RatingDataset::UserMean(std::uint32_t user) const {
  const auto entries = ByUser(user);
  if (entries.empty()) return global_mean_;
  double total = 0.0;
  for (const RatingEntry& e : entries) total += e.score;
  return total / static_cast<double>(entries.size());
}

std::size_t RatingDataset::ItemCount(std::uint32_t item) const {
  return ByItem(item).size();
}

std::size_t RatingDataset::UserCount(std::uint32_t user) const {
  return ByUser(user).size();
}

double RatingDataset::Density() const {
  if (num_items_ == 0 || num_users_ == 0) return 0.0;
  return static_cast<double>(ratings_.size()) /
         (static_cast<double>(num_items_) * static_cast<double>(num_users_));
}

std::vector<bool> SplitRatings(std::size_t num_ratings,
                               double holdout_fraction, Rng& rng) {
  CCDB_CHECK_GE(holdout_fraction, 0.0);
  CCDB_CHECK_LT(holdout_fraction, 1.0);
  std::vector<bool> held_out(num_ratings);
  for (std::size_t i = 0; i < num_ratings; ++i) {
    held_out[i] = rng.Bernoulli(holdout_fraction);
  }
  return held_out;
}

}  // namespace ccdb
