#include "net/fault_transport.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ccdb::net {

namespace {

bool SideContains(const std::vector<std::uint32_t>& side, std::uint32_t node) {
  return std::find(side.begin(), side.end(), node) != side.end();
}

}  // namespace

std::string NetTraceEntry::ToString() const {
  std::string line = method;
  line += ' ';
  line += std::to_string(from);
  line += "->";
  line += std::to_string(to);
  if (fault) {
    line += " FAULT ";
    line += fault_kind;
  }
  return line;
}

FaultTransport::FaultTransport(FaultTransportOptions options, Transport* base)
    : options_(options),
      owned_base_(base == nullptr ? std::make_unique<LocalTransport>()
                                  : nullptr),
      base_(base == nullptr ? *owned_base_ : *base),
      rng_(options.seed) {}

Status FaultTransport::Register(std::uint32_t node, Handler handler) {
  return base_.Register(node, std::move(handler));
}

void FaultTransport::Unregister(std::uint32_t node) {
  base_.Unregister(node);
}

void FaultTransport::StartPartition(const std::string& name,
                                    const std::vector<std::uint32_t>& side_a,
                                    const std::vector<std::uint32_t>& side_b) {
  MutexLock lock(mutex_);
  Partition& partition = partitions_[name];
  for (std::uint32_t node : side_a) {
    if (!SideContains(partition.side_a, node)) partition.side_a.push_back(node);
  }
  for (std::uint32_t node : side_b) {
    if (!SideContains(partition.side_b, node)) partition.side_b.push_back(node);
  }
}

void FaultTransport::HealPartition(const std::string& name) {
  MutexLock lock(mutex_);
  partitions_.erase(name);
}

bool FaultTransport::Partitioned(std::uint32_t a, std::uint32_t b) const {
  MutexLock lock(mutex_);
  for (const auto& entry : partitions_) {
    const Partition& partition = entry.second;
    const bool cut = (SideContains(partition.side_a, a) &&
                      SideContains(partition.side_b, b)) ||
                     (SideContains(partition.side_a, b) &&
                      SideContains(partition.side_b, a));
    if (cut) return true;
  }
  return false;
}

FaultTransport::FaultPlan FaultTransport::PlanCall(const Message& message) {
  MutexLock lock(mutex_);
  const std::uint64_t op_index = ++op_count_;

  if (options_.heal_partitions_at_op != 0 &&
      op_index >= options_.heal_partitions_at_op) {
    partitions_.clear();
  }

  FaultPlan plan;
  const char* kind = nullptr;
  for (const auto& entry : partitions_) {
    const Partition& partition = entry.second;
    const bool cut = (SideContains(partition.side_a, message.from) &&
                      SideContains(partition.side_b, message.to)) ||
                     (SideContains(partition.side_a, message.to) &&
                      SideContains(partition.side_b, message.from));
    if (cut) {
      plan.partitioned = true;
      kind = "partition";
      break;
    }
  }

  // Rng consumption must not depend on which earlier knob fired, or one
  // fault would reshuffle every later decision and break single-knob
  // replay comparisons. Roll every knob unconditionally, in fixed order,
  // then pick the first that fired.
  const bool roll_drop = rng_.Bernoulli(options_.drop_prob);
  const bool roll_duplicate = rng_.Bernoulli(options_.duplicate_prob);
  const bool roll_reset = rng_.Bernoulli(options_.reset_prob);
  const bool roll_delay = rng_.Bernoulli(options_.delay_prob);
  const double delay_u = rng_.Uniform();
  const bool roll_reorder = rng_.Bernoulli(options_.reorder_prob);
  const double reorder_u = rng_.Uniform();

  if (!plan.partitioned) {
    const bool forced_drop =
        options_.fault_at_op != 0 && op_index == options_.fault_at_op;
    if (roll_drop || forced_drop) {
      plan.drop = true;
      kind = "drop";
    } else if (roll_duplicate) {
      plan.duplicate = true;
      kind = "duplicate";
    } else if (roll_reset) {
      plan.reset = true;
      kind = "reset";
    }
    if (roll_delay) {
      // Pareto(alpha, x_min) via inverse CDF, clamped to delay_max_ms.
      const double alpha = std::max(options_.delay_pareto_alpha, 1e-3);
      const double u = std::max(1.0 - delay_u, 1e-12);
      const double sample =
          options_.delay_min_ms * std::pow(u, -1.0 / alpha);
      plan.delay_ms = std::min(sample, options_.delay_max_ms);
      if (kind == nullptr) kind = "delay";
    } else if (roll_reorder) {
      plan.delay_ms = reorder_u * options_.reorder_max_delay_ms;
      if (kind == nullptr) kind = "reorder";
    }
  }

  const bool fault = kind != nullptr;
  if (fault) ++fault_count_;
  trace_.push_back(NetTraceEntry{message.method, message.from, message.to,
                                 fault, fault ? kind : ""});
  return plan;
}

StatusOr<std::string> FaultTransport::Call(const Message& message,
                                           const StopCondition& stop) {
  if (Status stopped = stop.ToStatus(); !stopped.ok()) return stopped;

  const FaultPlan plan = PlanCall(message);

  if (plan.partitioned) {
    return Status::Unavailable("FaultTransport: network partition");
  }
  if (plan.delay_ms > 0.0 && !SleepUnlessStopped(plan.delay_ms, stop)) {
    return stop.ToStatus("transport call");
  }
  if (plan.drop) {
    return Status::Unavailable("FaultTransport: message dropped");
  }
  if (plan.duplicate) {
    // The retransmit that raced the original: deliver twice, keep only
    // the second response (either order is fine — the receiver must be
    // idempotent for the effects to stay exactly-once).
    StatusOr<std::string> first = base_.Call(message, stop);
    // ccdb-lint: allow(status-nodiscard) — the duplicate delivery's
    // response is discarded by design; only the second response returns.
    (void)first;
  }
  StatusOr<std::string> response = base_.Call(message, stop);
  if (plan.reset) {
    // The handler ran (server-side effects are real); the response died
    // on the return path.
    return Status::Unavailable("FaultTransport: connection reset");
  }
  return response;
}

std::vector<NetTraceEntry> FaultTransport::Trace() const {
  MutexLock lock(mutex_);
  return trace_;
}

std::uint64_t FaultTransport::faults_injected() const {
  MutexLock lock(mutex_);
  return fault_count_;
}

std::uint64_t FaultTransport::ops_observed() const {
  MutexLock lock(mutex_);
  return op_count_;
}

void FaultTransport::ClearTrace() {
  MutexLock lock(mutex_);
  trace_.clear();
}

}  // namespace ccdb::net
