/// \file spans.hpp
/// The benchmark's own span recorder for the traced run. Each call the
/// benchmark makes into a layer of the library is wrapped in a span named
/// `<layer>.<what>` (the layer is the src/ module: dag, platform, algo,
/// sim, campaign, api, exp, io, server). Spans keep a name, start, end,
/// parent and thread; they stay in memory and are forwarded to the obs
/// registry's Chrome trace at the end, next to the library's own spans.
///
/// A layer's self time is its spans' durations minus the part of each
/// interval that child spans cover. Children may overlap (client threads
/// of the server workload), so the covered part is the length of the union
/// of the child intervals clipped to the parent, never their sum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double begin_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index into the span list, -1 = root
  std::uint32_t tid = 0;
};

/// Self time of every span, in the order of `spans` (see the file comment).
[[nodiscard]] std::vector<double> self_times_us(
    const std::vector<SpanRecord>& spans);

struct LayerRow {
  std::string layer;
  double self_s = 0.0;
  double share = 0.0;  ///< self_s over the root's duration
  std::size_t calls = 0;
};

/// Per-layer self time of the subtree under `root`. The root's own self time
/// is the unattributed remainder: wall time no layer span covers.
struct LayerTable {
  std::vector<LayerRow> rows;  ///< sorted by layer name
  double wall_s = 0.0;
  double unattributed_s = 0.0;

  [[nodiscard]] double share(const std::string& layer) const;
};
[[nodiscard]] LayerTable layer_table(const std::vector<SpanRecord>& spans,
                                     int root);
void print_layer_table(std::ostream& os, const LayerTable& table);

/// Thread-safe, in-memory span store. Disabled (the default) it records
/// nothing and open() returns -1.
class SpanRecorder {
 public:
  void set_enabled(bool on);

  /// Opens a span whose parent is the innermost open span of the calling
  /// thread, or `parent` when that thread has none open.
  [[nodiscard]] int open(std::string name, int parent = -1);
  void close(int id);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Hands every recorded span to the obs registry's trace buffer.
  void export_to_obs() const;

 private:
  mutable std::mutex lock_;
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
};

[[nodiscard]] SpanRecorder& recorder();

/// RAII span on the global recorder.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, int parent = -1)
      : id_(recorder().open(std::move(name), parent)) {}
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  void finish() {
    if (id_ >= 0) recorder().close(id_);
    id_ = -1;
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  int id_;
};

}  // namespace perfbench
