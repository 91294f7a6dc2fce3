/// perfbench_selftest — the benchmark's own unit tests: self-time
/// arithmetic on a hand-built span tree with overlapping children, the
/// percentile and tail rules on synthetic samples, and the per-seed byte
/// stability of the server workload's request mix. (That a wrong output
/// or digest fails a run is tested end to end by test_perfbench.py.)
/// Exits 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "server_mix.hpp"
#include "spans.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_self_time() {
  using perfbench::SpanRecord;
  // root [0, 100] with children A [10, 40] and B [30, 60] overlapping
  // (two threads), C [90, 120] running past the root's end, and A's child
  // G [15, 25]. Times in microseconds.
  const std::vector<SpanRecord> spans = {
      {"workload.test", 0, 100, -1, 0}, {"sim.a", 10, 40, 0, 1},
      {"sim.b", 30, 60, 0, 2},          {"server.c", 90, 120, 0, 1},
      {"campaign.g", 15, 25, 1, 1},
  };
  const std::vector<double> self = perfbench::self_times_us(spans);
  // root: 100 minus the union [10, 60] + [90, 100] = 40.
  check(near(self[0], 40), "root self time subtracts the union of children");
  check(near(self[1], 20), "a child's self time subtracts its own child");
  check(near(self[2], 30), "an overlapping sibling keeps its whole duration");
  check(near(self[3], 30), "a leaf's self time is its duration");
  check(near(self[4], 10), "a grandchild's self time is its duration");

  const perfbench::LayerTable table = perfbench::layer_table(spans, 0);
  check(near(table.wall_s, 100e-6), "layer table wall is the root duration");
  check(near(table.unattributed_s, 40e-6),
        "unattributed remainder is the root's self time");
  check(near(table.share("sim"), 0.5), "sim share sums both sim spans");
  check(near(table.share("campaign"), 0.1), "campaign share");
  check(near(table.share("server"), 0.3), "server share");
  check(near(table.share("dag"), 0.0), "absent layer has share 0");

  // A subtree table ignores spans outside it.
  const std::vector<SpanRecord> two_roots = {
      {"workload.x", 0, 10, -1, 0},
      {"sim.a", 2, 4, 0, 0},
      {"probe.x", 20, 30, -1, 0},
      {"algo.b", 21, 29, 2, 0},
  };
  const perfbench::LayerTable probe = perfbench::layer_table(two_roots, 2);
  check(probe.rows.size() == 1 && probe.rows[0].layer == "algo" &&
            probe.rows[0].calls == 1,
        "subtree table holds only the subtree's layers");
  check(near(probe.unattributed_s, 2e-6), "subtree unattributed remainder");
}

void test_percentiles() {
  check(near(perfbench::median({3, 1, 2}), 2), "median of an odd sample");
  check(near(perfbench::median({4, 1, 3, 2}), 2.5), "median of an even sample");
  check(near(perfbench::percentile({5, 1, 4, 2, 3}, 0.5), 3),
        "nearest-rank p50");
  check(near(perfbench::percentile({5, 1, 4, 2, 3}, 1.0), 5),
        "nearest-rank p100 is the maximum");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const auto tail = perfbench::tail_percentile(hundred);
  check(tail && near(tail->fraction, 0.90) && near(tail->value, 90) &&
            tail->beyond == 10,
        "100 samples support p90 (10 above) but not p95 (5 above)");

  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  const auto deep = perfbench::tail_percentile(thousand);
  check(deep && near(deep->fraction, 0.99) && deep->beyond == 10,
        "1000 samples support p99");

  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) twenty.push_back(i);
  const auto shallow = perfbench::tail_percentile(twenty);
  check(shallow && near(shallow->fraction, 0.50) && shallow->beyond == 10,
        "20 samples support only the median");

  twenty.pop_back();
  check(!perfbench::tail_percentile(twenty),
        "19 samples support no tail percentile");

  // Ties: values equal to the percentile are not beyond it.
  std::vector<double> ties(50, 7.0);
  for (int i = 0; i < 10; ++i) ties.push_back(9.0);
  const auto tied = perfbench::tail_percentile(ties);
  check(tied && near(tied->value, 7.0) && tied->beyond == 10,
        "samples tied with the percentile do not count as beyond it");
}

void test_request_mix() {
  // Pinned byte forms: a change here changes every server-mixed run.
  const std::string seed1 = perfbench::mix_fingerprint(1, 0, 16, 12);
  const std::string seed2 = perfbench::mix_fingerprint(2, 0, 16, 12);
  check(seed1 == perfbench::mix_fingerprint(1, 0, 16, 12),
        "request mix is a pure function of the seed");
  check(seed1 != seed2, "different seeds draw different mixes");
  check(seed1 != perfbench::mix_fingerprint(1, 1, 16, 12),
        "clients draw different sequences");
  check(seed1 ==
            "8:1;1:0;0:0;6:0;3:2;2:2;4:0;10:1;10:0;1:0;11:0;0:0;1:0;9:0;3:0;"
            "6:1;",
        "seed 1 mix bytes are pinned: " + seed1);
  check(seed2 ==
            "0:2;5:2;9:0;1:1;0:0;0:0;1:1;2:1;6:1;3:0;5:0;10:1;0:0;0:0;0:2;"
            "3:0;",
        "seed 2 mix bytes are pinned: " + seed2);

  // The deck: rank r occurs in proportion to 1 / (r + 1), two thirds of
  // the requests are uniform-k, and every deck-aligned window of a stream
  // holds exactly the deck, whatever the seed.
  const std::vector<perfbench::MixRequest> deck = perfbench::mix_deck(12);
  std::vector<int> per_rank(12, 0);
  std::vector<int> per_kind(3, 0);
  for (const perfbench::MixRequest& request : deck) {
    ++per_rank[request.instance];
    ++per_kind[static_cast<int>(request.kind)];
  }
  check(deck.size() == 60 && per_rank[0] == 19 && per_rank[1] == 10 &&
            per_rank[5] == 3 && per_rank[11] == 2,
        "deck is skewed toward low ranks and covers the pool");
  check(per_kind[0] == 40 && per_kind[1] == 10 && per_kind[2] == 10,
        "deck holds 40 uniform-k, 10 exact-window, 10 bucketed-window");
  const auto counts = [](std::uint64_t seed, std::size_t stream,
                         std::size_t first) {
    std::vector<int> keys(36, 0);
    for (std::size_t i = first; i < first + 60; ++i)
      ++keys[perfbench::request_key(
          perfbench::mix_request(seed, stream, i, 12))];
    return keys;
  };
  const std::vector<int> reference = counts(1, 0, 0);
  bool stable = true;
  for (const std::uint64_t seed : {1u, 2u, 3u})
    for (const std::size_t stream : {0u, 1u})
      stable = stable && counts(seed, stream, 60) == reference &&
               counts(seed, stream, 0) == reference;
  check(stable, "every deck-aligned window has the deck's composition");
}

}  // namespace

int main() {
  test_self_time();
  test_percentiles();
  test_request_mix();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
