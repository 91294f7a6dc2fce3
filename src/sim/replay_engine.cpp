#include "sim/replay_engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace caft {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNone32 = 0xffffffffu;

// Op kinds/states; values mirror the naive replay's enums.
constexpr std::uint8_t kExec = 0;
constexpr std::uint8_t kWire = 1;
constexpr std::uint8_t kSegment = 2;
constexpr std::uint8_t kReception = 3;
constexpr std::uint8_t kHandoff = 4;

constexpr std::uint8_t kPending = 0;
constexpr std::uint8_t kDone = 1;
constexpr std::uint8_t kDead = 2;

/// Stored fault-free snapshots; memory is O(kMaxSnapshots × ops).
constexpr std::size_t kMaxSnapshots = 64;

}  // namespace

double ReplayEngine::first_crash(const CrashScenario& scenario) {
  double earliest = kInf;
  for (std::size_t p = 0; p < scenario.proc_count(); ++p)
    earliest = std::min(
        earliest,
        scenario.crash_time(ProcId(static_cast<ProcId::value_type>(p))));
  return earliest;
}

ReplayEngine::ReplayEngine(const Schedule& schedule, const CostModel& costs)
    : schedule_(&schedule) {
  (void)costs;  // durations come from the committed schedule, as in the
                // naive replay; the parameter keeps the two call shapes
                // symmetric.
  CAFT_CHECK_MSG(schedule.complete(), "schedule is incomplete");
  build_template();
  record_fault_free();
}

void ReplayEngine::build_template() {
  const TaskGraph& g = schedule_->graph();
  m_ = schedule_->platform().proc_count();
  const std::size_t link_count = schedule_->platform().topology().link_count();
  resource_count_ = 3 * m_ + link_count;
  leaf_base_ = 1;
  while (leaf_base_ < resource_count_) leaf_base_ *= 2;

  const auto exec_res = [&](ProcId p) { return p.index(); };
  const auto send_res = [&](ProcId p) { return m_ + p.index(); };
  const auto recv_res = [&](ProcId p) { return 2 * m_ + p.index(); };
  const auto link_res = [&](LinkId l) { return 3 * m_ + l.index(); };

  // Build in exactly the order the naive replay does, so op ids (the
  // deterministic tie-break of the event loop) coincide.
  struct Keyed {
    double key;
    std::size_t seq;
    std::uint32_t op;
    std::size_t res;
  };
  std::vector<Keyed> keyed;

  const auto push_op = [&](std::uint8_t kind, double duration,
                           std::size_t res_a, std::size_t res_b,
                           std::uint32_t prereq, bool prereq_start,
                           std::int32_t owner) -> std::uint32_t {
    const auto id = static_cast<std::uint32_t>(kind_.size());
    kind_.push_back(kind);
    prereq_is_start_.push_back(prereq_start ? 1 : 0);
    counts_message_.push_back(0);
    duration_.push_back(duration);
    res_a_.push_back(res_a == static_cast<std::size_t>(-1)
                         ? kNone32
                         : static_cast<std::uint32_t>(res_a));
    res_b_.push_back(res_b == static_cast<std::size_t>(-1)
                         ? kNone32
                         : static_cast<std::uint32_t>(res_b));
    prereq_.push_back(prereq);
    owner_.push_back(owner);
    feed_slot_.push_back(kNone32);
    feed_exec_.push_back(kNone32);
    return id;
  };

  // Execution ops, CSR-indexed per task: exec_ops_[exec_op_begin_[t] + r].
  exec_op_begin_.assign(g.task_count() + 1, 0);
  for (const TaskId t : g.all_tasks())
    exec_op_begin_[t.index() + 1] =
        static_cast<std::uint32_t>(schedule_->total_replicas(t));
  for (std::size_t i = 1; i <= g.task_count(); ++i)
    exec_op_begin_[i] += exec_op_begin_[i - 1];
  exec_ops_.assign(exec_op_begin_[g.task_count()], 0);
  const auto exec_op = [&](std::size_t task, ReplicaIndex r) {
    return exec_ops_[exec_op_begin_[task] + r];
  };
  std::size_t seq = 0;
  for (const TaskId t : g.all_tasks()) {
    const std::size_t total = schedule_->total_replicas(t);
    for (ReplicaIndex r = 0; r < total; ++r) {
      const ReplicaAssignment& a = schedule_->replica(t, r);
      const std::uint32_t id =
          push_op(kExec, a.finish - a.start, exec_res(a.proc),
                  static_cast<std::size_t>(-1), kNone32, false,
                  static_cast<std::int32_t>(a.proc.index()));
      exec_ops_[exec_op_begin_[t.index()] + r] = id;
      keyed.push_back({a.start, seq++, id, exec_res(a.proc)});
    }
  }

  // Communication chains; comm_to_op maps each comm to its terminating op.
  std::vector<std::uint32_t> comm_to_op(schedule_->comms().size(), kNone32);
  for (std::size_t ci = 0; ci < schedule_->comms().size(); ++ci) {
    const CommAssignment& c = schedule_->comms()[ci];
    const std::uint32_t source_exec =
        exec_op(c.from.task.index(), c.from.replica);

    if (c.intra() || schedule_->model() == CommModelKind::kMacroDataflow) {
      const std::uint32_t id =
          push_op(kHandoff, c.times.arrival - c.times.link_start,
                  static_cast<std::size_t>(-1), static_cast<std::size_t>(-1),
                  source_exec, false, -1);
      counts_message_[id] = c.intra() ? 0 : 1;
      comm_to_op[ci] = id;
      continue;
    }

    // One-port chain: wire, optional extra segments, reception.
    CAFT_CHECK_MSG(!c.times.segments.empty(),
                   "one-port inter-processor comm without segments");
    std::uint32_t prev = kNone32;
    for (std::size_t si = 0; si < c.times.segments.size(); ++si) {
      const LinkOccupancy& seg = c.times.segments[si];
      std::uint32_t id;
      if (si == 0) {
        // A wire dies with its *sender*; forwarding through a dead router
        // (non-final hop toward the link's far end) is handled by the kill
        // lists below.
        id = push_op(kWire, seg.finish - seg.start, send_res(c.src_proc),
                     link_res(seg.link), source_exec, false,
                     static_cast<std::int32_t>(c.src_proc.index()));
        keyed.push_back({seg.start, seq++, id, send_res(c.src_proc)});
        keyed.push_back({seg.start, seq, id, link_res(seg.link)});
      } else {
        id = push_op(kSegment, seg.finish - seg.start, link_res(seg.link),
                     static_cast<std::size_t>(-1), prev, false, -1);
        keyed.push_back({seg.start, seq++, id, link_res(seg.link)});
      }
      prev = id;
    }
    const std::uint32_t recv =
        push_op(kReception, c.times.arrival - c.times.recv_start,
                recv_res(c.dst_proc), static_cast<std::size_t>(-1), prev,
                /*prereq_start=*/true,
                static_cast<std::int32_t>(c.dst_proc.index()));
    counts_message_[recv] = 1;
    comm_to_op[ci] = recv;
    keyed.push_back({c.times.recv_start, seq++, recv, recv_res(c.dst_proc)});
  }

  op_count_ = kind_.size();

  // Resource queues in committed order (same sort as the naive replay),
  // flattened into one CSR array: the whole hot working set of the commit
  // loop is then four contiguous arrays (queue_ops_, state, head, free_at).
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  });
  queue_begin_.assign(resource_count_ + 1, 0);
  for (const Keyed& k : keyed) ++queue_begin_[k.res + 1];
  for (std::size_t r = 0; r < resource_count_; ++r)
    queue_begin_[r + 1] += queue_begin_[r];
  queue_ops_.assign(keyed.size(), 0);
  {
    std::vector<std::uint32_t> cursor(queue_begin_.begin(),
                                      queue_begin_.end() - 1);
    for (const Keyed& k : keyed) queue_ops_[cursor[k.res]++] = k.op;
  }

  // Disjunctive input slots: one slot per (exec op, in-edge), flattened.
  exec_slot_begin_.assign(op_count_ + 1, 0);
  std::vector<std::vector<std::vector<std::uint32_t>>> inputs_by_exec(
      op_count_);
  for (const TaskId t : g.all_tasks()) {
    const auto in = g.in_edges(t);
    const std::size_t total = schedule_->total_replicas(t);
    for (ReplicaIndex r = 0; r < total; ++r) {
      const std::uint32_t eop = exec_op(t.index(), r);
      inputs_by_exec[eop].assign(in.size(), {});
      for (const std::size_t ci : schedule_->incoming_comms(t, r)) {
        const CommAssignment& c = schedule_->comms()[ci];
        const auto pos = std::find(in.begin(), in.end(), c.edge) - in.begin();
        CAFT_CHECK(static_cast<std::size_t>(pos) < in.size());
        CAFT_CHECK(comm_to_op[ci] != kNone32);
        inputs_by_exec[eop][static_cast<std::size_t>(pos)].push_back(
            comm_to_op[ci]);
      }
    }
  }
  slot_input_begin_.assign(1, 0);
  for (std::uint32_t op = 0; op < op_count_; ++op) {
    exec_slot_begin_[op] = static_cast<std::uint32_t>(
        slot_input_begin_.size() - 1);
    for (const auto& slot : inputs_by_exec[op]) {
      const std::uint32_t slot_id =
          static_cast<std::uint32_t>(slot_input_begin_.size() - 1);
      for (const std::uint32_t in_op : slot) {
        slot_inputs_.push_back(in_op);
        // Every terminating op feeds exactly one (exec, edge) slot.
        feed_slot_[in_op] = slot_id;
        feed_exec_[in_op] = op;
      }
      slot_input_begin_.push_back(
          static_cast<std::uint32_t>(slot_inputs_.size()));
    }
  }
  exec_slot_begin_[op_count_] =
      static_cast<std::uint32_t>(slot_input_begin_.size() - 1);

  // Prerequisite dependents (reverse of prereq_), CSR.
  dep_begin_.assign(op_count_ + 1, 0);
  for (std::uint32_t op = 0; op < op_count_; ++op)
    if (prereq_[op] != kNone32) ++dep_begin_[prereq_[op] + 1];
  for (std::size_t i = 1; i <= op_count_; ++i) dep_begin_[i] += dep_begin_[i - 1];
  dep_ops_.assign(dep_begin_[op_count_], 0);
  {
    std::vector<std::uint32_t> cursor(dep_begin_.begin(),
                                      dep_begin_.end() - 1);
    for (std::uint32_t op = 0; op < op_count_; ++op)
      if (prereq_[op] != kNone32) dep_ops_[cursor[prereq_[op]]++] = op;
  }

  // Per-processor kill lists: which ops die when p is dead from the start.
  // Mirrors the naive kill_dead_processors case analysis exactly.
  const Topology& topology = schedule_->platform().topology();
  std::vector<std::vector<std::uint32_t>> kills(m_);
  const auto link_of = [&](std::size_t res) -> const LinkDef& {
    return topology.link(
        LinkId(static_cast<LinkId::value_type>(res - 3 * m_)));
  };
  for (std::uint32_t op = 0; op < op_count_; ++op) {
    switch (kind_[op]) {
      case kExec:
        kills[static_cast<std::size_t>(owner_[op])].push_back(op);
        break;
      case kWire:
        kills[res_a_[op] - m_].push_back(op);  // dies with its sender port
        break;
      case kSegment: {
        const LinkDef& def = link_of(res_a_[op]);
        kills[def.from.index()].push_back(op);
        break;
      }
      case kReception: {
        const std::size_t port = res_a_[op] - 2 * m_;
        kills[port].push_back(op);
        break;
      }
      default:
        break;  // hand-offs die only via propagation
    }
  }
  // Non-final wires and segments also die with the router they forward to.
  // "Non-final" = some segment lists this op as its prerequisite.
  std::vector<std::uint8_t> has_segment_successor(op_count_, 0);
  for (std::uint32_t op = 0; op < op_count_; ++op)
    if (kind_[op] == kSegment && prereq_[op] != kNone32)
      has_segment_successor[prereq_[op]] = 1;
  for (std::uint32_t op = 0; op < op_count_; ++op) {
    if (!has_segment_successor[op]) continue;
    if (kind_[op] == kWire) {
      kills[link_of(res_b_[op]).to.index()].push_back(op);
    } else if (kind_[op] == kSegment) {
      kills[link_of(res_a_[op]).to.index()].push_back(op);
    }
  }

  kill_begin_.assign(m_ + 1, 0);
  for (std::size_t p = 0; p < m_; ++p)
    kill_begin_[p + 1] =
        kill_begin_[p] + static_cast<std::uint32_t>(kills[p].size());
  kill_ops_.reserve(kill_begin_[m_]);
  for (std::size_t p = 0; p < m_; ++p)
    kill_ops_.insert(kill_ops_.end(), kills[p].begin(), kills[p].end());

  // The kill lists inverted into per-op processor bitmasks, plus a
  // topological order over the (prereq → dependent, slot input → exec)
  // edges: close_dead_mask() uses them to turn dead-from-start propagation
  // into one linear pass of word-sized mask tests. m > 64 (no single dead
  // word) keeps the worklist path and leaves both arrays empty.
  topo_order_.clear();
  direct_kill_mask_.clear();
  if (m_ <= 64) {
    direct_kill_mask_.assign(op_count_, 0);
    for (std::size_t p = 0; p < m_; ++p)
      for (std::uint32_t i = kill_begin_[p]; i < kill_begin_[p + 1]; ++i)
        direct_kill_mask_[kill_ops_[i]] |= std::uint64_t{1} << p;

    std::vector<std::uint32_t> indegree(op_count_, 0);
    for (std::uint32_t op = 0; op < op_count_; ++op) {
      if (prereq_[op] != kNone32) ++indegree[op];
      if (feed_slot_[op] != kNone32) ++indegree[feed_exec_[op]];
    }
    std::vector<std::uint32_t> stack;
    for (std::uint32_t op = 0; op < op_count_; ++op)
      if (indegree[op] == 0) stack.push_back(op);
    topo_order_.reserve(op_count_);
    while (!stack.empty()) {
      const std::uint32_t op = stack.back();
      stack.pop_back();
      topo_order_.push_back(op);
      for (std::uint32_t i = dep_begin_[op]; i < dep_begin_[op + 1]; ++i)
        if (--indegree[dep_ops_[i]] == 0) stack.push_back(dep_ops_[i]);
      if (feed_slot_[op] != kNone32 && --indegree[feed_exec_[op]] == 0)
        stack.push_back(feed_exec_[op]);
    }
    CAFT_CHECK_MSG(topo_order_.size() == op_count_,
                   "op dependency graph has a cycle");
  }
}

void ReplayEngine::reset_pristine(Scratch& s) const {
  s.state.assign(op_count_, kPending);
  // start/finish need no clearing: they are only ever read for ops in the
  // kDone state, which always receive fresh values at their commit.
  s.start.resize(op_count_);
  s.finish.resize(op_count_);
  s.head.assign(resource_count_, 0);
  s.free_at.assign(resource_count_, 0.0);
  // Every hand-off waits on an exec, and no exec is done yet.
  s.ready_handoffs.clear();
  s.dead_inputs.assign(slot_input_begin_.size() - 1, 0);
  s.worklist.clear();
  s.tree.resize(2 * leaf_base_);
  s.dirty_flag.assign(resource_count_, 0);
  s.dirty_resources.clear();
  s.all_dirty = true;
  s.order_relaxations = 0;
  s.order_deadlock = false;
  s.died = false;
}

void ReplayEngine::restore_snapshot(Scratch& s, const Snapshot& snap) const {
  s.state = snap.state;
  s.start = snap.start;
  s.finish = snap.finish;
  s.head = snap.head;
  s.free_at = snap.free_at;
  s.ready_handoffs = snap.ready_handoffs;
  // No op is dead anywhere on the fault-free prefix.
  s.dead_inputs.assign(slot_input_begin_.size() - 1, 0);
  s.worklist.clear();
  s.tree.resize(2 * leaf_base_);
  s.dirty_flag.assign(resource_count_, 0);
  s.dirty_resources.clear();
  s.all_dirty = true;
  s.order_relaxations = 0;
  s.order_deadlock = false;
  s.died = false;
}

std::size_t ReplayEngine::pick_snapshot(const CrashScenario& scenario) const {
  // A processor dead (or dying) at t <= 0 invalidates the whole prefix: the
  // naive replay pre-kills its ops before the first event.
  for (std::size_t p = 0; p < m_; ++p)
    if (scenario.crash_time(ProcId(static_cast<ProcId::value_type>(p))) <=
        0.0)
      return static_cast<std::size_t>(-1);
  const auto valid = [&](const Snapshot& snap) {
    for (std::size_t p = 0; p < m_; ++p)
      if (snap.per_proc_max[p] >
          scenario.crash_time(ProcId(static_cast<ProcId::value_type>(p))))
        return false;
    return true;
  };
  // Validity is monotone (prefix maxima only grow): binary-search the
  // latest valid snapshot.
  std::size_t lo = 0;
  std::size_t hi = snapshots_.size();
  std::size_t best = static_cast<std::size_t>(-1);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (valid(snapshots_[mid])) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return best;
}

void ReplayEngine::kill(Scratch& s, std::uint32_t op) const {
  s.state[op] = kDead;
  s.worklist.push_back(op);
}

void ReplayEngine::propagate(Scratch& s) const {
  // Worklist closure of the naive propagate_dead fixpoint: a dead
  // prerequisite kills its dependents; an exec dies when some in-edge has
  // every input dead. The resulting state set is the same least fixpoint
  // the naive full-scan loop computes. A death changes the candidate only
  // of the resources the dead op sits on: its dependents die with it, and
  // a dead input never lowers an exec's earliest live arrival.
  while (!s.worklist.empty()) {
    const std::uint32_t op = s.worklist.back();
    s.worklist.pop_back();
    for (std::uint32_t i = dep_begin_[op]; i < dep_begin_[op + 1]; ++i) {
      const std::uint32_t d = dep_ops_[i];
      if (s.state[d] == kPending) kill(s, d);
    }
    if (feed_slot_[op] != kNone32) {
      const std::uint32_t slot = feed_slot_[op];
      const std::uint32_t total =
          slot_input_begin_[slot + 1] - slot_input_begin_[slot];
      if (++s.dead_inputs[slot] == total) {
        const std::uint32_t e = feed_exec_[op];
        if (s.state[e] == kPending) kill(s, e);
      }
    }
    // A settled op at a queue head unblocks whatever sits behind it.
    if (res_a_[op] != kNone32) {
      advance_resource(s, res_a_[op]);
      mark_dirty(s, res_a_[op]);
    }
    if (res_b_[op] != kNone32) {
      advance_resource(s, res_b_[op]);
      mark_dirty(s, res_b_[op]);
    }
  }
}

void ReplayEngine::close_dead_mask(Scratch& s, std::uint64_t dead_mask) const {
  // One linear pass over the topological order computes the same least
  // fixpoint as the worklist propagate: every edge that can transmit death
  // (prereq → dependent, slot input → exec) points forward in topo_order_,
  // so by the time an op is visited everything that could kill it is final.
  // The per-op test is word arithmetic on direct_kill_mask_, not
  // pointer-chasing through kill lists.
  for (const std::uint32_t op : topo_order_) {
    bool dead = (direct_kill_mask_[op] & dead_mask) != 0;
    const std::uint32_t pre = prereq_[op];
    if (!dead && pre != kNone32 && s.state[pre] == kDead) dead = true;
    if (!dead && kind_[op] == kExec) {
      for (std::uint32_t slot = exec_slot_begin_[op];
           slot < exec_slot_begin_[op + 1]; ++slot) {
        const std::uint32_t total =
            slot_input_begin_[slot + 1] - slot_input_begin_[slot];
        // total > 0 mirrors the worklist, which kills through a slot only
        // when an increment *reaches* the total — never for empty slots.
        if (total > 0 && s.dead_inputs[slot] == total) {
          dead = true;
          break;
        }
      }
    }
    if (!dead) continue;
    s.state[op] = kDead;
    if (feed_slot_[op] != kNone32) ++s.dead_inputs[feed_slot_[op]];
  }
  // The worklist path interleaves head advances with deaths; advancing
  // every resource once after all deaths lands each head on the same first
  // still-pending op (advance is monotone and settled states are final).
  for (std::uint32_t res = 0; res < resource_count_; ++res)
    advance_resource(s, res);
}

void ReplayEngine::advance_resource(Scratch& s, std::uint32_t res) const {
  const std::uint32_t qb = queue_begin_[res];
  const std::uint32_t qe = queue_begin_[res + 1];
  std::uint32_t h = s.head[res];
  while (qb + h < qe && s.state[queue_ops_[qb + h]] != kPending) ++h;
  s.head[res] = h;
}

bool ReplayEngine::at_heads(const Scratch& s, std::uint32_t op) const {
  const std::uint32_t a = res_a_[op];
  if (a != kNone32) {
    const std::uint32_t idx = queue_begin_[a] + s.head[a];
    if (idx >= queue_begin_[a + 1] || queue_ops_[idx] != op) return false;
  }
  const std::uint32_t b = res_b_[op];
  if (b != kNone32) {
    const std::uint32_t idx = queue_begin_[b] + s.head[b];
    if (idx >= queue_begin_[b + 1] || queue_ops_[idx] != op) return false;
  }
  return true;
}

bool ReplayEngine::runnable(const Scratch& s, std::uint32_t op,
                            double& ready) const {
  ready = 0.0;
  const std::uint32_t pre = prereq_[op];
  if (pre != kNone32) {
    if (s.state[pre] != kDone) return false;
    ready = prereq_is_start_[op] ? s.start[pre] : s.finish[pre];
  }
  if (kind_[op] == kExec) {
    for (std::uint32_t slot = exec_slot_begin_[op];
         slot < exec_slot_begin_[op + 1]; ++slot) {
      double first = kInf;
      for (std::uint32_t i = slot_input_begin_[slot];
           i < slot_input_begin_[slot + 1]; ++i) {
        const std::uint32_t in_op = slot_inputs_[i];
        if (s.state[in_op] == kDone)
          first = std::min(first, s.finish[in_op]);
      }
      if (first == kInf) return false;  // no live input yet for this edge
      ready = std::max(ready, first);
    }
  }
  if (res_a_[op] != kNone32) ready = std::max(ready, s.free_at[res_a_[op]]);
  if (res_b_[op] != kNone32) ready = std::max(ready, s.free_at[res_b_[op]]);
  return true;
}

ReplayEngine::Candidate ReplayEngine::head_candidate(const Scratch& s,
                                                     std::uint32_t res) const {
  // Exactly what the naive per-commit scan considers for this resource's
  // queue head; the sentinel (kInf, kNone32) encodes "no runnable head".
  const std::uint32_t idx = queue_begin_[res] + s.head[res];
  if (idx < queue_begin_[res + 1]) {
    const std::uint32_t op = queue_ops_[idx];
    double ready = 0.0;
    if (s.state[op] == kPending && at_heads(s, op) && runnable(s, op, ready))
      return {ready, op};
  }
  return {kInf, kNone32};
}

void ReplayEngine::recompute_candidate(Scratch& s, std::uint32_t res) const {
  ++s.counters_.recomputes;
  std::size_t node = leaf_base_ + res;
  s.tree[node] = head_candidate(s, res);
  // Replay the matches on the path to the root, stopping at the first node
  // whose winner does not change (nothing above it can change either).
  for (node /= 2; node >= 1; node /= 2) {
    const Candidate& left = s.tree[2 * node];
    const Candidate& right = s.tree[2 * node + 1];
    const Candidate& win = before(right, left) ? right : left;
    if (win.ready == s.tree[node].ready && win.op == s.tree[node].op) break;
    s.tree[node] = win;
  }
}

void ReplayEngine::rebuild_candidates(Scratch& s) const {
  s.counters_.recomputes += resource_count_;
  for (std::uint32_t res = 0;
       res < static_cast<std::uint32_t>(resource_count_); ++res)
    s.tree[leaf_base_ + res] = head_candidate(s, res);
  for (std::size_t leaf = leaf_base_ + resource_count_; leaf < 2 * leaf_base_;
       ++leaf)
    s.tree[leaf] = {kInf, kNone32};
  for (std::size_t node = leaf_base_ - 1; node >= 1; --node) {
    const Candidate& left = s.tree[2 * node];
    const Candidate& right = s.tree[2 * node + 1];
    s.tree[node] = before(right, left) ? right : left;
  }
}

void ReplayEngine::mark_dirty(Scratch& s, std::uint32_t res) const {
  if (s.all_dirty || s.dirty_flag[res] != 0) return;
  s.dirty_flag[res] = 1;
  s.dirty_resources.push_back(res);
}

void ReplayEngine::mark_head_dirty(Scratch& s, std::uint32_t res) const {
  mark_dirty(s, res);
  const std::uint32_t idx = queue_begin_[res] + s.head[res];
  if (idx >= queue_begin_[res + 1]) return;
  const std::uint32_t op = queue_ops_[idx];
  if (res_a_[op] != kNone32) mark_dirty(s, res_a_[op]);
  if (res_b_[op] != kNone32) mark_dirty(s, res_b_[op]);
}

bool ReplayEngine::commit_next(Scratch& s, const CrashScenario& scenario,
                               std::uint32_t* committed) const {
  s.died = false;
  // Discrete-event step, exactly the naive selection: among the queue-head
  // operations (plus resource-free hand-offs) whose prerequisites are met,
  // commit the one with the earliest candidate start; lowest op id breaks
  // ties. Instead of re-deriving every head's readiness each step, the
  // Scratch keeps each resource's candidate in a tournament tree and each
  // commit recomputes only the resources the previous events dirtied; the
  // ready hand-offs wait in a min-heap. The selection merges the tree's
  // root with the heap's top. Candidate values come from the same
  // at_heads/runnable code, so the selected (ready, op) — tie-breaks, ±inf
  // conventions and IEEE arithmetic included — is bit-identical to the
  // full rescan.
  if (s.all_dirty) {
    rebuild_candidates(s);
    s.all_dirty = false;
    for (const std::uint32_t res : s.dirty_resources) s.dirty_flag[res] = 0;
  } else {
    for (const std::uint32_t res : s.dirty_resources) {
      s.dirty_flag[res] = 0;
      recompute_candidate(s, res);
    }
  }
  s.dirty_resources.clear();

  const auto later = [](const Candidate& a, const Candidate& b) {
    return before(b, a);
  };
  std::uint32_t best = s.tree[1].op;
  double best_start = s.tree[1].ready;
  if (!s.ready_handoffs.empty() && before(s.ready_handoffs.front(), s.tree[1])) {
    best_start = s.ready_handoffs.front().ready;
    best = s.ready_handoffs.front().op;
    std::pop_heap(s.ready_handoffs.begin(), s.ready_handoffs.end(), later);
    s.ready_handoffs.pop_back();
  }

  if (best == kNone32) {
    // Strict committed order stuck (circular wait through rerouted inputs —
    // possible only under crashes): any prerequisite-ready op may jump the
    // queue; the resource clocks still serialize everything. The same
    // pass notes whether anything is still pending, so the replay's last
    // step (nothing pending) costs one scan, not two.
    ++s.counters_.relaxation_scans;
    bool pending = false;
    for (std::uint32_t op = 0; op < op_count_; ++op) {
      if (s.state[op] != kPending) continue;
      pending = true;
      double ready = 0.0;
      if (!runnable(s, op, ready)) continue;
      if (ready < best_start || (ready == best_start && op < best)) {
        best_start = ready;
        best = op;
      }
    }
    if (best == kNone32) {
      // Nothing can ever run again: remaining pending work is lost.
      if (pending) {
        s.order_deadlock = true;
        for (std::uint32_t op = 0; op < op_count_; ++op)
          if (s.state[op] == kPending) s.state[op] = kDead;
      }
      return false;
    }
    ++s.order_relaxations;
    // A queue-jumping commit moves resource clocks under ops that never
    // headed a queue — no targeted invalidation covers that, so refresh
    // everything next step (relaxations are rare: zero fault-free).
    // The jumping op is never a hand-off: a ready hand-off sits in the
    // heap and would have been selected above.
    s.all_dirty = true;
  }

  ++s.counters_.events;
  s.start[best] = best_start;
  const double finish = best_start + duration_[best];
  s.finish[best] = finish;
  if (committed != nullptr) *committed = best;

  // Crash-at-θ: work in flight when the owner dies is lost, and the owner's
  // resources are gone for good.
  const std::int32_t owner = owner_[best];
  if (owner >= 0 &&
      finish > scenario.crash_time(
                   ProcId(static_cast<ProcId::value_type>(owner)))) {
    kill(s, best);
    s.died = true;
    const auto p = static_cast<std::size_t>(owner);
    s.free_at[p] = kInf;           // exec resource
    s.free_at[m_ + p] = kInf;      // send port
    s.free_at[2 * m_ + p] = kInf;  // receive port
    // Those clocks feed the candidates of the three resources' heads; a
    // wire at the send port's head also caches its candidate at its link.
    // The caller runs propagate(), which advances and dirties the
    // resources of this op and of everything that dies with it.
    mark_head_dirty(s, static_cast<std::uint32_t>(p));
    mark_head_dirty(s, static_cast<std::uint32_t>(m_ + p));
    mark_head_dirty(s, static_cast<std::uint32_t>(2 * m_ + p));
    return true;
  }

  s.state[best] = kDone;
  if (res_a_[best] != kNone32) {
    s.free_at[res_a_[best]] = std::max(s.free_at[res_a_[best]], finish);
    advance_resource(s, res_a_[best]);
    mark_dirty(s, res_a_[best]);
  }
  if (res_b_[best] != kNone32) {
    s.free_at[res_b_[best]] = std::max(s.free_at[res_b_[best]], finish);
    advance_resource(s, res_b_[best]);
    mark_dirty(s, res_b_[best]);
  }
  // Targeted invalidation — the commit can only change the candidacy of:
  // ops behind it on its own resources (heads and clocks moved, covered
  // above); its prerequisite dependents (now satisfiable); and the exec one
  // of whose input slots it feeds (that slot's earliest live arrival may
  // have dropped). A dependent hand-off becomes ready at this finish time
  // and enters the heap.
  for (std::uint32_t i = dep_begin_[best]; i < dep_begin_[best + 1]; ++i) {
    const std::uint32_t d = dep_ops_[i];
    if (kind_[d] == kHandoff) {
      ++s.counters_.handoff_checks;
      s.ready_handoffs.push_back({finish, d});
      std::push_heap(s.ready_handoffs.begin(), s.ready_handoffs.end(),
                     later);
      continue;
    }
    if (res_a_[d] != kNone32) mark_dirty(s, res_a_[d]);
    if (res_b_[d] != kNone32) mark_dirty(s, res_b_[d]);
  }
  if (feed_slot_[best] != kNone32) {
    const std::uint32_t e = feed_exec_[best];
    if (res_a_[e] != kNone32) mark_dirty(s, res_a_[e]);
  }
  return true;
}

CrashResult ReplayEngine::collect(const Scratch& s) const {
  const TaskGraph& g = schedule_->graph();
  CrashResult result;
  result.order_deadlock = s.order_deadlock;
  result.order_relaxations = s.order_relaxations;
  result.completed.resize(g.task_count());
  result.finish.resize(g.task_count());
  result.success = true;
  double latency = 0.0;
  for (const TaskId t : g.all_tasks()) {
    const std::size_t total = schedule_->total_replicas(t);
    result.completed[t.index()].assign(total, false);
    result.finish[t.index()].assign(total, kInf);
    double first = kInf;
    for (ReplicaIndex r = 0; r < total; ++r) {
      const std::uint32_t op = exec_ops_[exec_op_begin_[t.index()] + r];
      if (s.state[op] == kDone) {
        result.completed[t.index()][r] = true;
        result.finish[t.index()][r] = s.finish[op];
        first = std::min(first, s.finish[op]);
      }
    }
    if (first == kInf) {
      result.success = false;
    } else {
      latency = std::max(latency, first);
    }
  }
  result.latency = result.success ? latency : kInf;

  std::size_t delivered = 0;
  for (std::uint32_t op = 0; op < op_count_; ++op)
    if (counts_message_[op] != 0 && s.state[op] == kDone) ++delivered;
  result.delivered_messages = delivered;
  return result;
}

void ReplayEngine::record_fault_free() {
  const CrashScenario none = CrashScenario::none(m_);
  Scratch s;

  // Pass 1: count events on the fault-free timeline.
  reset_pristine(s);
  commit_count_ = 0;
  while (commit_next(s, none, nullptr)) ++commit_count_;
  CAFT_CHECK_MSG(!s.order_deadlock,
                 "fault-free replay of a complete schedule deadlocked");

  if (commit_count_ == 0) return;

  // Snapshot placement: the 1-based commit counts after which to snapshot,
  // spaced evenly over the events. The final state is always snapshotted,
  // so never-crashing scenarios finish in one restore. Placement never
  // affects replay results.
  std::vector<std::size_t> marks;
  const std::size_t interval = std::max<std::size_t>(
      1, (commit_count_ + kMaxSnapshots - 1) / kMaxSnapshots);
  for (std::size_t i = interval; i < commit_count_; i += interval)
    marks.push_back(i);
  marks.push_back(commit_count_);

  // Pass 2: replay again, snapshotting at the chosen commit counts.
  reset_pristine(s);
  std::vector<double> per_proc_max(m_, 0.0);
  std::size_t done = 0;
  std::size_t next_mark = 0;
  std::uint32_t committed = kNone32;
  while (commit_next(s, none, &committed)) {
    ++done;
    if (owner_[committed] >= 0) {
      auto& peak = per_proc_max[static_cast<std::size_t>(owner_[committed])];
      peak = std::max(peak, s.finish[committed]);
    }
    if (next_mark < marks.size() && done == marks[next_mark]) {
      ++next_mark;
      Snapshot snap;
      snap.per_proc_max = per_proc_max;
      snap.state = s.state;
      snap.start = s.start;
      snap.finish = s.finish;
      snap.head = s.head;
      snap.free_at = s.free_at;
      snap.ready_handoffs = s.ready_handoffs;
      snapshots_.push_back(std::move(snap));
    }
  }
}

CrashResult ReplayEngine::replay(const CrashScenario& scenario) const {
  Scratch scratch;
  return replay(scenario, scratch);
}

const CrashResult& ReplayEngine::replay(const CrashScenario& scenario,
                                        Scratch& scratch) const {
  CAFT_CHECK_MSG(scenario.proc_count() == m_,
                 "scenario size does not match the platform");
  const std::size_t snap = pick_snapshot(scenario);
  if (snap == static_cast<std::size_t>(-1)) {
    reset_pristine(scratch);
    if (m_ <= 64) {
      // Dead-from-start closure as one linear bitmask pass (the worklist
      // form of kill_dead_processors + propagate_dead computes the same
      // least fixpoint; see close_dead_mask).
      std::uint64_t dead_mask = 0;
      for (std::size_t p = 0; p < m_; ++p)
        if (scenario.dead_from_start(
                ProcId(static_cast<ProcId::value_type>(p))))
          dead_mask |= std::uint64_t{1} << p;
      if (dead_mask != 0) close_dead_mask(scratch, dead_mask);
    } else {
      // No single dead word: pre-kill each dead processor's ops from the
      // kill lists and close over the consequences with the worklist.
      for (std::size_t p = 0; p < m_; ++p) {
        if (!scenario.dead_from_start(
                ProcId(static_cast<ProcId::value_type>(p))))
          continue;
        for (std::uint32_t i = kill_begin_[p]; i < kill_begin_[p + 1]; ++i)
          if (scratch.state[kill_ops_[i]] == kPending)
            kill(scratch, kill_ops_[i]);
      }
      propagate(scratch);
    }
  } else {
    restore_snapshot(scratch, snapshots_[snap]);
  }
  while (commit_next(scratch, scenario, nullptr))
    if (scratch.died) propagate(scratch);
  scratch.result = collect(scratch);
  return scratch.result;
}

}  // namespace caft
