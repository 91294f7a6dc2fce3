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
///     head cursors, resource clocks, pending hand-offs) is checkpointed at
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
/// (instance, schedule, scenario) triples; the campaign executor relies on
/// it to make `--engine naive` and `--engine incremental` interchangeable.
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

/// Tuning knobs; the defaults suit campaign workloads.
struct ReplayEngineOptions {
  /// Upper bound on stored fault-free snapshots; memory is
  /// O(max_snapshots × ops).
  std::size_t max_snapshots = 64;
};

/// Prefix-cached replay engine bound to one committed schedule.
class ReplayEngine {
 public:
  /// Builds the template and records the fault-free timeline. `schedule`
  /// and `costs` must outlive the engine.
  ReplayEngine(const Schedule& schedule, const CostModel& costs,
               ReplayEngineOptions options = {});

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Per-thread mutable replay state. Reusing one Scratch across replays
  /// avoids all per-replay allocation; contents are opaque.
  class Scratch {
   public:
    Scratch() = default;

   private:
    friend class ReplayEngine;
    std::vector<std::uint8_t> state;
    std::vector<double> start;
    std::vector<double> finish;
    std::vector<std::uint32_t> head;
    std::vector<double> free_at;
    std::vector<std::uint32_t> handoffs;
    std::vector<std::uint32_t> dead_inputs;
    std::vector<std::uint32_t> worklist;
    /// Per-resource candidate cache (structure-of-arrays): the ready time
    /// and op id of each resource's runnable queue head, kept current by
    /// targeted invalidation so each commit recomputes only the resources
    /// the previous commit touched, then takes a branch-light min over two
    /// flat arrays. (kInf, kNone32) encodes "no runnable head".
    std::vector<double> cand_ready;
    std::vector<std::uint32_t> cand_op;
    std::vector<std::uint32_t> dirty_resources;
    std::vector<std::uint8_t> dirty_flag;
    bool all_dirty = true;
    std::size_t order_relaxations = 0;
    bool order_deadlock = false;
    bool died = false;
    /// Home of the most recent result (replay returns a reference into
    /// this — never a copy).
    CrashResult result;
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
    /// Hand-off ops still pending at this point (hand-offs hold no
    /// resource, so the queue heads cannot rediscover them on restore).
    std::vector<std::uint32_t> pending_handoffs;
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
  /// Recomputes one resource's cached (ready, op) candidate.
  void recompute_candidate(Scratch& s, std::uint32_t res) const;
  void mark_dirty(Scratch& s, std::uint32_t res) const;
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
  std::vector<std::uint32_t> initial_handoffs_;

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
  ReplayEngineOptions options_;
};

}  // namespace caft
