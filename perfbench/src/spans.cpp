#include "spans.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <ostream>
#include <utility>

#include "obs/obs.hpp"

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;

/// Layer of a span name: the text before its first '.'.
std::string span_layer(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

std::vector<double> self_times_us(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& span : spans)
    if (span.parent >= 0 &&
        static_cast<std::size_t>(span.parent) < spans.size())
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.begin_us, span.end_us);

  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double begin = spans[i].begin_us;
    const double end = spans[i].end_us;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the child intervals, clipped to [begin, end].
    double covered = 0.0;
    double run_begin = 0.0;
    double run_end = 0.0;
    bool in_run = false;
    for (const auto& [kid_begin, kid_end] : kids) {
      const double lo = std::max(kid_begin, begin);
      const double hi = std::min(kid_end, end);
      if (hi <= lo) continue;
      if (in_run && lo <= run_end) {
        run_end = std::max(run_end, hi);
        continue;
      }
      if (in_run) covered += run_end - run_begin;
      run_begin = lo;
      run_end = hi;
      in_run = true;
    }
    if (in_run) covered += run_end - run_begin;
    self[i] = std::max(0.0, (end - begin) - covered);
  }
  return self;
}

double LayerTable::share(const std::string& layer) const {
  for (const LayerRow& row : rows)
    if (row.layer == layer) return row.share;
  return 0.0;
}

LayerTable layer_table(const std::vector<SpanRecord>& spans, int root) {
  LayerTable table;
  if (root < 0 || static_cast<std::size_t>(root) >= spans.size()) return table;
  const std::vector<double> self = self_times_us(spans);

  // Membership in the root's subtree (parents always precede children).
  std::vector<bool> inside(spans.size(), false);
  inside[static_cast<std::size_t>(root)] = true;
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans.size();
       ++i) {
    const int parent = spans[i].parent;
    inside[i] = parent >= 0 && inside[static_cast<std::size_t>(parent)];
  }

  const SpanRecord& top = spans[static_cast<std::size_t>(root)];
  table.wall_s = (top.end_us - top.begin_us) * 1e-6;
  table.unattributed_s = self[static_cast<std::size_t>(root)] * 1e-6;
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!inside[i] || static_cast<int>(i) == root) continue;
    LayerRow& row = rows[span_layer(spans[i].name)];
    row.self_s += self[i] * 1e-6;
    ++row.calls;
  }
  for (auto& [layer, row] : rows) {
    row.layer = layer;
    row.share = table.wall_s > 0.0 ? row.self_s / table.wall_s : 0.0;
    table.rows.push_back(row);
  }
  return table;
}

void print_layer_table(std::ostream& os, const LayerTable& table) {
  os << "  " << std::left << std::setw(12) << "layer" << std::right
     << std::setw(12) << "self s" << std::setw(12) << "share"
     << std::setw(10) << "calls" << "\n";
  os << std::fixed;
  for (const LayerRow& row : table.rows)
    os << "  " << std::left << std::setw(12) << row.layer << std::right
       << std::setw(12) << std::setprecision(4) << row.self_s << std::setw(12)
       << std::setprecision(4) << row.share << std::setw(10) << row.calls
       << "\n";
  const double rest =
      table.wall_s > 0.0 ? table.unattributed_s / table.wall_s : 0.0;
  os << "  " << std::left << std::setw(12) << "(unattrib.)" << std::right
     << std::setw(12) << std::setprecision(4) << table.unattributed_s
     << std::setw(12) << std::setprecision(4) << rest << std::setw(10) << "-"
     << "\n";
  os << "  wall " << std::setprecision(4) << table.wall_s << " s\n";
  os << std::defaultfloat;
}

void SpanRecorder::set_enabled(bool on) {
  const std::lock_guard<std::mutex> guard(lock_);
  enabled_ = on;
}

int SpanRecorder::open(std::string name, int parent) {
  const double now = obs::Registry::global().now_us();
  const std::lock_guard<std::mutex> guard(lock_);
  if (!enabled_) return -1;
  SpanRecord record;
  record.name = std::move(name);
  record.begin_us = now;
  record.end_us = now;
  record.parent = t_open.empty() ? parent : t_open.back();
  record.tid = obs::Registry::current_tid();
  spans_.push_back(std::move(record));
  const int id = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  const double now = obs::Registry::global().now_us();
  const std::lock_guard<std::mutex> guard(lock_);
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].end_us = now;
  const auto it = std::find(t_open.begin(), t_open.end(), id);
  if (it != t_open.end()) t_open.erase(it);
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> guard(lock_);
  return spans_;
}

void SpanRecorder::export_to_obs() const {
  const std::lock_guard<std::mutex> guard(lock_);
  obs::Registry& registry = obs::Registry::global();
  for (const SpanRecord& span : spans_)
    registry.complete_event("bench:" + span.name, span.begin_us,
                            span.end_us - span.begin_us, span.tid);
}

SpanRecorder& recorder() {
  static SpanRecorder instance;
  return instance;
}

}  // namespace perfbench
