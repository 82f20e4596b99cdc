#ifndef CCDB_NET_FAULT_TRANSPORT_H_
#define CCDB_NET_FAULT_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/transport.h"

namespace ccdb::net {

/// Knobs of the fault-injecting Transport decorator — the message-level
/// sibling of FaultFsOptions. All probabilities are per Call and
/// independent; one seeded Rng drives everything, so a (seed, knobs) pair
/// replays the exact same fault schedule.
struct FaultTransportOptions {
  std::uint64_t seed = 0;

  /// The request vanishes: the handler never runs and the caller gets
  /// Unavailable after the (possibly delayed) transit time.
  double drop_prob = 0.0;
  /// At-least-once delivery: the handler runs twice for one Call (the
  /// retransmit raced the first delivery); the duplicate's response is
  /// discarded. Exercises the receiver's idempotency machinery.
  double duplicate_prob = 0.0;
  /// The request is delayed by a Pareto-distributed transit time — the
  /// heavy-tailed straggler hedged requests exist to cut off.
  double delay_prob = 0.0;
  double delay_min_ms = 0.5;
  double delay_pareto_alpha = 1.3;
  /// Delay samples are clamped here so a soak iteration stays bounded.
  double delay_max_ms = 25.0;
  /// The request is held back a small uniform time before delivery,
  /// re-ordering it against concurrent calls to the same node.
  double reorder_prob = 0.0;
  double reorder_max_delay_ms = 3.0;
  /// The handler runs to completion but the response is lost on the way
  /// back (connection reset): the caller sees Unavailable while the
  /// server-side effects — money spent, journal appended — are real.
  /// The nastiest fault for exactly-once accounting.
  double reset_prob = 0.0;

  /// Deterministic single-fault mode: fault exactly the N-th Call
  /// (1-based; 0 = disabled) with a drop. Probabilistic knobs still apply
  /// independently on the other ops.
  std::uint64_t fault_at_op = 0;
  /// Deterministic healing: right before the N-th Call (1-based; 0 =
  /// disabled) every named partition is healed — a partition that cuts a
  /// query off mid-flight and then recovers while retries are still
  /// running.
  std::uint64_t heal_partitions_at_op = 0;
};

/// One line of the op trace: "<method> <from>-><to> [FAULT <kind>]".
struct NetTraceEntry {
  std::string method;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  bool fault = false;
  std::string fault_kind;

  std::string ToString() const;
};

/// Fault-injecting Transport decorator. Wraps a base transport (default:
/// an owned LocalTransport) and deterministically injects drops,
/// duplicates, Pareto delays, reordering, connection resets, and named
/// bidirectional partitions per FaultTransportOptions. Thread-safe; every
/// Call (faulted or not) lands in the op trace.
class FaultTransport final : public Transport {
 public:
  explicit FaultTransport(FaultTransportOptions options,
                          Transport* base = nullptr);

  [[nodiscard]] Status Register(std::uint32_t node, Handler handler) override;
  void Unregister(std::uint32_t node) override;
  [[nodiscard]] StatusOr<std::string> Call(const Message& message,
                                           const StopCondition& stop) override;

  /// Starts (or widens) the named partition: messages between any node of
  /// `side_a` and any node of `side_b` fail Unavailable, both directions,
  /// until the partition is healed. Remember that the router itself is a
  /// node (kClientNode) — include it in a side to cut clients off too.
  void StartPartition(const std::string& name,
                      const std::vector<std::uint32_t>& side_a,
                      const std::vector<std::uint32_t>& side_b);
  /// Removes the named partition (unknown names are a no-op).
  void HealPartition(const std::string& name);
  /// Whether any active partition separates `a` from `b`.
  bool Partitioned(std::uint32_t a, std::uint32_t b) const;

  /// Calls observed so far (faulted or clean), in order.
  std::vector<NetTraceEntry> Trace() const;
  std::uint64_t faults_injected() const;
  std::uint64_t ops_observed() const;
  void ClearTrace();

  const FaultTransportOptions& options() const { return options_; }

 private:
  struct Partition {
    std::vector<std::uint32_t> side_a;
    std::vector<std::uint32_t> side_b;
  };

  /// Rolls the fault schedule for one Call and appends its trace entry.
  /// Exactly one fault kind (at most) fires per call, chosen under a
  /// single lock acquisition so the Rng consumption order — and thus the
  /// replay — is deterministic per (seed, call order).
  struct FaultPlan {
    bool partitioned = false;
    bool drop = false;
    bool duplicate = false;
    bool reset = false;
    double delay_ms = 0.0;
  };
  FaultPlan PlanCall(const Message& message);

  const FaultTransportOptions options_;
  std::unique_ptr<Transport> owned_base_;
  Transport& base_;

  // Ranked kFaultTransport: one lock acquisition plans a whole Call's
  // fault schedule; released before the base transport delivers.
  mutable Mutex mutex_{lock_rank::kFaultTransport};
  Rng rng_ GUARDED_BY(mutex_);
  std::uint64_t op_count_ GUARDED_BY(mutex_) = 0;
  std::uint64_t fault_count_ GUARDED_BY(mutex_) = 0;
  std::vector<NetTraceEntry> trace_ GUARDED_BY(mutex_);
  std::map<std::string, Partition> partitions_ GUARDED_BY(mutex_);
};

}  // namespace ccdb::net

#endif  // CCDB_NET_FAULT_TRANSPORT_H_
