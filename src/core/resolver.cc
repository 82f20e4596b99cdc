#include "core/resolver.h"

#include "common/check.h"
#include "common/rng.h"

namespace ccdb::core {

PerceptualExpansionResolver::PerceptualExpansionResolver(
    const PerceptualSpace* space, crowd::WorkerPool pool,
    crowd::HitRunConfig hit_config, std::uint64_t seed)
    : space_(space),
      pool_(std::move(pool)),
      hit_config_(hit_config),
      seed_(seed) {
  CCDB_CHECK(space_ != nullptr);
}

void PerceptualExpansionResolver::RegisterAttribute(
    const std::string& name, PerceptualAttributeSpec spec) {
  attributes_[name] = std::move(spec);
}

Status PerceptualExpansionResolver::Resolve(db::Table& table,
                                            const std::string& column_name) {
  auto it = attributes_.find(column_name);
  if (it == attributes_.end()) {
    return Status::NotFound("attribute not registered for expansion: " +
                            column_name);
  }
  // Row i of the table corresponds to item i of the space; the table may
  // be a prefix of the space's items.
  if (table.num_rows() > space_->num_items()) {
    return Status::FailedPrecondition(
        "table has rows beyond the perceptual space");
  }
  const PerceptualAttributeSpec& spec = it->second;
  if (spec.type == db::ColumnType::kBool) {
    return ResolveBool(table, column_name, spec);
  }
  if (spec.type == db::ColumnType::kDouble) {
    return ResolveNumeric(table, column_name, spec);
  }
  return Status::InvalidArgument("unsupported perceptual attribute type");
}

Status PerceptualExpansionResolver::ResolveBool(
    db::Table& table, const std::string& column_name,
    const PerceptualAttributeSpec& spec) {
  if (spec.bool_truth == nullptr) {
    return Status::FailedPrecondition("no truth provider for " + column_name);
  }
  // Pick the gold sample and simulate the crowd labeling it.
  Rng rng(seed_ + attributes_.size());
  SchemaExpansionRequest request;
  request.attribute_name = column_name;
  request.extractor = spec.extractor;
  std::vector<bool> sample_truth;
  for (std::size_t index : rng.SampleWithoutReplacement(
           space_->num_items(),
           std::min(spec.gold_sample_size, space_->num_items()))) {
    const auto item = static_cast<std::uint32_t>(index);
    request.gold_sample_items.push_back(item);
    sample_truth.push_back(spec.bool_truth(item));
  }

  // The one expansion pipeline; with the resolver's default options it
  // is the plain crowd pass -> majority vote -> train -> extract all.
  last_result_ = ExpandSchemaResilient(*space_, request, pool_, hit_config_,
                                       sample_truth);
  if (!last_result_.status.ok()) return last_result_.status;
  audit_log_.push_back({column_name, db::ColumnType::kBool,
                        request.gold_sample_items.size(),
                        last_result_.gold_sample_classified,
                        last_result_.crowd_dollars,
                        last_result_.crowd_minutes});
  return Materialize(table, {column_name, db::ColumnType::kBool},
                     last_result_.values);
}

Status PerceptualExpansionResolver::ResolveNumeric(
    db::Table& table, const std::string& column_name,
    const PerceptualAttributeSpec& spec) {
  if (spec.numeric_truth == nullptr) {
    return Status::FailedPrecondition("no truth provider for " + column_name);
  }
  // Numeric gold samples are simulated as trusted-expert judgments with
  // small noise (the crowd platform models Boolean HITs only; see
  // DESIGN.md on substitutions).
  Rng rng(seed_ + attributes_.size() + 1);
  std::vector<std::uint32_t> items;
  std::vector<double> judgments;
  for (std::size_t index : rng.SampleWithoutReplacement(
           space_->num_items(),
           std::min(spec.gold_sample_size, space_->num_items()))) {
    const auto item = static_cast<std::uint32_t>(index);
    items.push_back(item);
    judgments.push_back(spec.numeric_truth(item) + rng.Gaussian(0.0, 0.25));
  }

  NumericAttributeExtractor extractor(spec.extractor);
  if (!extractor.Train(*space_, items, judgments)) {
    return Status::Internal("numeric extractor training failed for " +
                            column_name);
  }
  last_result_ = SchemaExpansionResult{};
  last_result_.gold_sample_classified = items.size();
  last_result_.status = Status::Ok();
  audit_log_.push_back({column_name, db::ColumnType::kDouble, items.size(),
                        items.size(), 0.0, 0.0});
  return Materialize(table, {column_name, db::ColumnType::kDouble},
                     extractor.ExtractAll(*space_));
}

Status PerceptualExpansionResolver::Materialize(
    db::Table& table, const db::ColumnDef& column,
    const ExtractedColumn& extracted) {
  if (Status status = table.AddColumn(column); !status.ok()) return status;
  std::vector<db::Value> values(table.num_rows());
  std::visit(
      [&values](const auto& items) {
        for (std::size_t row = 0; row < values.size(); ++row) {
          values[row] = db::Value(items[row]);
        }
      },
      extracted);
  return table.FillColumn(table.schema().num_columns() - 1, values);
}

}  // namespace ccdb::core
