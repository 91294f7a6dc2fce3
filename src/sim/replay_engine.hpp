/// \file replay_engine.hpp
/// Incremental, prefix-cached crash replay — the campaign hot path.
///
/// `simulate_crashes` (sim/crash_sim.hpp) rebuilds the full replay machine
/// and re-executes the committed schedule from t = 0 for every scenario. A
/// Monte-Carlo campaign replays the *same* schedule millions of times, and
/// every scenario whose earliest crash happens at time θ shares an identical
/// fault-free prefix with every other scenario up to θ. ReplayEngine
/// exploits both redundancies:
///
///  1. **Immutable template.** The operation graph (executions, wire/segment
///     chains, receptions, hand-offs), the per-resource committed queues and
///     the per-replica input maps depend only on the schedule — they are
///     built once, in flat CSR-style arrays, and shared read-only by every
///     replay (and every worker thread).
///  2. **Prefix snapshots.** The fault-free timeline is simulated once at
///     construction; the mutable simulator state (op states and times, queue
///     head cursors, resource clocks, ready hand-offs) is checkpointed at
///     event boundaries, each snapshot annotated with the per-processor
///     maximum finish time committed so far. A scenario whose crash times
///     all exceed those maxima replays *identically* through that prefix, so
///     `replay` branches from the latest valid snapshot instead of t = 0.
///     Scenarios with a processor dead from the start (the paper's model)
///     fall back to the pristine state — they still reuse the template, and
///     dead-propagation is a single linear pass over a precomputed
///     topological op order testing per-op processor bitmasks against the
///     ≤64-proc dead word (the worklist closure remains for m > 64 and for
///     mid-replay θ deaths), instead of the naive fixpoint scan.
///  3. **Indexed event selection.** The naive replay picks each event by
///     rescanning every resource's queue head and every pending hand-off:
///     O(resources + pending hand-offs) per event. Here each resource's
///     head candidate (ready, op id) is cached in a tournament tree, the
///     hand-offs whose source exec is done wait in a min-heap (a hand-off
///     holds no resource, so its ready time finish[source] never changes
///     once known), and the event is the lexicographically smaller of the
///     tree's root and the heap's top — the naive order, tie-breaks and
///     the (+inf, op) candidates of θ-dead resources included. A resource
///     is recomputed, in O(log resources), only when an input of its
///     candidate changed:
///       - a commit moves its own resources' heads and clocks, makes its
///         dependents runnable and may lower the earliest live arrival of
///         the exec it feeds;
///       - a death (the θ-crashed op and everything propagate() kills
///         with it) moves the heads of the dead ops' resources, while a
///         dead input never lowers an exec's earliest live arrival and a
///         dead prerequisite kills its dependent;
///       - a θ crash sets the dead processor's three clocks to +inf,
///         which changes the candidates cached at those resources and, for
///         a wire heading the send port, at the wire's link too.
///     A resource whose head is a wire not yet heading its other queue
///     caches the sentinel (+inf, kNone32); the candidate lives at that
///     other queue, whose recompute is due anyway when the wire reaches
///     its head. Every resource is recomputed on reset, on snapshot
///     restore and after an order relaxation (a queue-jumping commit moves
///     clocks under ops that head no queue).
///
/// The engine is exact-only and keeps no memo: deduplicating identical
/// scenarios, memoising their records and θ-quantization all live in the
/// campaign's wave executor (campaign/campaign.cpp), which hands the engine
/// each distinct (already snapped) scenario once.
///
/// Determinism contract: for every (schedule, scenario) pair, `replay`
/// returns a CrashResult **bit-for-bit identical** to
/// `simulate_crashes(schedule, costs, scenario)` — same event choices, same
/// IEEE arithmetic, same relaxation/deadlock accounting. The differential
/// suite tests/test_replay_equivalence.cpp asserts this over randomized
/// (instance, schedule, scenario) triples; every campaign relies on it, so
/// a campaign's records equal the simulate_crashes reference's.
///
/// Thread safety: `replay` is const and touches only the template and the
/// caller's Scratch, so one engine may serve any number of threads as long
/// as each thread owns its Scratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "platform/cost_model.hpp"
#include "sched/schedule.hpp"
#include "sim/crash_sim.hpp"

namespace caft {

/// Prefix-cached replay engine bound to one committed schedule.
class ReplayEngine {
  /// A selection candidate. Candidates order lexicographically on
  /// (ready, op); the sentinel (+inf, kNone32) means "nothing runnable" and
  /// sorts after every real candidate, (+inf, op) included.
  struct Candidate {
    double ready;
    std::uint32_t op;
  };
  /// The lexicographic (ready, op) order of the naive selection.
  static bool before(const Candidate& a, const Candidate& b) {
    return a.ready < b.ready || (a.ready == b.ready && a.op < b.op);
  }

 public:
  /// Builds the template and records the fault-free timeline. `schedule`
  /// and `costs` must outlive the engine.
  ReplayEngine(const Schedule& schedule, const CostModel& costs);

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Per-thread mutable replay state. Reusing one Scratch across replays
  /// avoids all per-replay allocation; contents are opaque.
  class Scratch {
   public:
    /// Work done by the replays run through this Scratch, cumulative over
    /// its lifetime (plain counts; the campaign executor sums them across
    /// workers and publishes them as the sim.replay.* obs counters).
    struct Counters {
      std::uint64_t events = 0;            ///< ops committed
      std::uint64_t recomputes = 0;        ///< resource candidates recomputed
      std::uint64_t handoff_checks = 0;    ///< hand-off readiness checks
      std::uint64_t relaxation_scans = 0;  ///< order-relaxation full scans
    };

    Scratch() = default;
    [[nodiscard]] const Counters& counters() const { return counters_; }

   private:
    friend class ReplayEngine;
    std::vector<std::uint8_t> state;
    std::vector<double> start;
    std::vector<double> finish;
    std::vector<std::uint32_t> head;
    std::vector<double> free_at;
    std::vector<std::uint32_t> dead_inputs;
    std::vector<std::uint32_t> worklist;
    /// Tournament tree over the per-resource candidates: leaf
    /// leaf_base_ + r caches the (ready, op) of resource r's runnable queue
    /// head, every inner node the smaller of its two children, so the root
    /// tree[1] is the minimum. A commit recomputes only the resources it
    /// dirtied, each in O(log resources).
    std::vector<Candidate> tree;
    /// Min-heap of the pending hand-offs whose prerequisite is done. A
    /// hand-off holds no resource, so its ready time finish[prereq] is
    /// final once pushed; it leaves the heap only when it commits.
    std::vector<Candidate> ready_handoffs;
    std::vector<std::uint32_t> dirty_resources;
    std::vector<std::uint8_t> dirty_flag;
    bool all_dirty = true;
    std::size_t order_relaxations = 0;
    bool order_deadlock = false;
    bool died = false;
    /// Home of the most recent result (replay returns a reference into
    /// this — never a copy).
    CrashResult result;
    Counters counters_;
  };

  /// Re-executes the schedule under `scenario`; equivalent to
  /// simulate_crashes bit for bit. Allocates a throw-away Scratch.
  [[nodiscard]] CrashResult replay(const CrashScenario& scenario) const;

  /// Same, reusing the caller's Scratch (the campaign hot path). The
  /// returned reference lives inside `scratch` and stays valid until the
  /// next replay call with the same Scratch.
  const CrashResult& replay(const CrashScenario& scenario,
                            Scratch& scratch) const;

  /// Events (op commits) on the fault-free timeline.
  [[nodiscard]] std::size_t event_count() const { return commit_count_; }
  /// Stored prefix snapshots.
  [[nodiscard]] std::size_t snapshot_count() const {
    return snapshots_.size();
  }
  [[nodiscard]] const Schedule& schedule() const { return *schedule_; }

  /// Earliest crash instant of `scenario` (+inf when nothing ever fails) —
  /// the key the campaign executor sorts replay blocks by.
  [[nodiscard]] static double first_crash(const CrashScenario& scenario);

 private:
  struct Snapshot {
    /// per_proc_max[p]: max finish committed so far among ops owned by p.
    /// The snapshot is valid for a scenario iff every processor's crash
    /// time is positive and >= its entry here.
    std::vector<double> per_proc_max;
    std::vector<std::uint8_t> state;
    std::vector<double> start;
    std::vector<double> finish;
    std::vector<std::uint32_t> head;
    std::vector<double> free_at;
    /// The ready hand-off heap at this point (hand-offs hold no resource,
    /// so the queue heads cannot rediscover them on restore).
    std::vector<Candidate> ready_handoffs;
  };

  void build_template();
  void record_fault_free();

  void reset_pristine(Scratch& s) const;
  void restore_snapshot(Scratch& s, const Snapshot& snap) const;
  /// Index into snapshots_ usable for `scenario`, or npos for "from t=0".
  [[nodiscard]] std::size_t pick_snapshot(const CrashScenario& scenario) const;

  void kill(Scratch& s, std::uint32_t op) const;
  void propagate(Scratch& s) const;
  /// Dead-from-start closure: one linear pass over topo_order_ computing the
  /// same least fixpoint as the worklist propagate, as branch-light bitmask
  /// tests of direct_kill_mask_ against the ≤64-proc dead word. Only valid
  /// from the pristine state (no op settled yet); m_ <= 64 only.
  void close_dead_mask(Scratch& s, std::uint64_t dead_mask) const;
  /// Advances one resource's head cursor past settled ops.
  void advance_resource(Scratch& s, std::uint32_t res) const;
  /// The (ready, op) candidate of one resource's queue head.
  [[nodiscard]] Candidate head_candidate(const Scratch& s,
                                         std::uint32_t res) const;
  /// Recomputes one resource's leaf and the tree path above it.
  void recompute_candidate(Scratch& s, std::uint32_t res) const;
  /// Recomputes every leaf and rebuilds the tree bottom-up.
  void rebuild_candidates(Scratch& s) const;
  void mark_dirty(Scratch& s, std::uint32_t res) const;
  /// Dirties `res` and both resources of its queue head (a wire heads a
  /// send port and a link at once).
  void mark_head_dirty(Scratch& s, std::uint32_t res) const;
  [[nodiscard]] bool at_heads(const Scratch& s, std::uint32_t op) const;
  [[nodiscard]] bool runnable(const Scratch& s, std::uint32_t op,
                              double& ready) const;
  bool commit_next(Scratch& s, const CrashScenario& scenario,
                   std::uint32_t* committed) const;
  [[nodiscard]] CrashResult collect(const Scratch& s) const;

  const Schedule* schedule_;
  std::size_t m_ = 0;
  std::size_t op_count_ = 0;
  std::size_t resource_count_ = 0;
  /// First leaf of the candidate tree: a power of two >= resource_count_.
  std::size_t leaf_base_ = 1;

  // --- immutable per-op template (struct-of-arrays; see build_template).
  std::vector<std::uint8_t> kind_;
  std::vector<std::uint8_t> prereq_is_start_;
  std::vector<std::uint8_t> counts_message_;
  std::vector<double> duration_;
  std::vector<std::uint32_t> res_a_;
  std::vector<std::uint32_t> res_b_;
  std::vector<std::uint32_t> prereq_;
  std::vector<std::int32_t> owner_;  ///< proc whose crash kills the op, or -1

  /// Committed per-resource queues (same order as the naive replay),
  /// flattened CSR-style: queue_ops_[queue_begin_[r] .. queue_begin_[r+1]).
  /// Scratch head cursors stay relative to each resource's own queue.
  std::vector<std::uint32_t> queue_begin_;  ///< size resource_count_+1
  std::vector<std::uint32_t> queue_ops_;

  /// exec ops per task, flattened CSR-style (for collect()):
  /// exec_ops_[exec_op_begin_[t] + replica] = op id.
  std::vector<std::uint32_t> exec_op_begin_;  ///< size task_count+1
  std::vector<std::uint32_t> exec_ops_;

  // Disjunctive exec inputs, flattened: exec op -> [slot_begin, slot_end)
  // global in-edge slots; slot -> terminating op ids feeding it.
  std::vector<std::uint32_t> exec_slot_begin_;   ///< size op_count_+1
  std::vector<std::uint32_t> slot_input_begin_;  ///< size slot_count+1
  std::vector<std::uint32_t> slot_inputs_;

  // Reverse maps for worklist dead-propagation.
  std::vector<std::uint32_t> dep_begin_;  ///< prereq dependents CSR
  std::vector<std::uint32_t> dep_ops_;
  std::vector<std::uint32_t> feed_slot_;  ///< slot the op terminates into
  std::vector<std::uint32_t> feed_exec_;  ///< exec op of that slot

  /// kill_ops_[kill_begin_[p]..kill_begin_[p+1]): ops dead when processor p
  /// is dead from the start (mirrors the naive kill_dead_processors rules).
  std::vector<std::uint32_t> kill_begin_;
  std::vector<std::uint32_t> kill_ops_;
  /// The same kill lists inverted into per-op processor bitmasks (m_ <= 64
  /// only; empty otherwise): op dies directly iff mask & dead-word != 0.
  std::vector<std::uint64_t> direct_kill_mask_;
  /// Ops in a topological order of (prereq, slot-input → exec) edges; the
  /// dead-from-start closure is one linear pass over this.
  std::vector<std::uint32_t> topo_order_;

  std::size_t commit_count_ = 0;
  std::vector<Snapshot> snapshots_;
};

}  // namespace caft
