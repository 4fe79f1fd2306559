// Self-tests of the benchmark's own machinery: the generators, the
// percentile rule, the span arithmetic and the result comparison.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "federation/integrator.h"
#include "generator.h"
#include "reference.h"
#include "spans.h"
#include "sql/fingerprint.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("  %s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

const size_t kCacheCapacity = fedcal::IiConfig{}.plan_cache_capacity;

std::vector<std::string> AdhocSqls(uint64_t seed, size_t n) {
  AdhocStream stream(seed, AdhocPoolSize(kCacheCapacity));
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) out.push_back(stream.Next().sql);
  return out;
}

std::vector<std::pair<int, int>> TemplateDraws(uint64_t seed, size_t n) {
  TemplateStream stream(seed);
  std::vector<std::pair<int, int>> out;
  for (size_t i = 0; i < n; ++i) {
    const TemplateDraw d = stream.Next();
    out.emplace_back(d.type, d.instance);
  }
  return out;
}

void TestGenerators() {
  std::printf("generators\n");
  Check(AdhocSqls(7, 2000) == AdhocSqls(7, 2000),
        "ad-hoc stream is identical for one seed");
  Check(AdhocSqls(7, 2000) != AdhocSqls(8, 2000),
        "ad-hoc stream differs across seeds");
  Check(TemplateDraws(7, 400) == TemplateDraws(7, 400),
        "template stream is identical for one seed");
  Check(TemplateDraws(7, 400) != TemplateDraws(8, 400),
        "template stream differs across seeds");
  const auto draws = TemplateDraws(3, 4 * TemplateStream::kBlock);
  bool exact = true;
  for (size_t b = 0; b < draws.size(); b += TemplateStream::kBlock) {
    std::set<std::pair<int, int>> block(draws.begin() + b,
                                        draws.begin() + b +
                                            TemplateStream::kBlock);
    exact = exact && block.size() == TemplateStream::kBlock;
  }
  Check(exact, "every template block holds all forty (type, instance) pairs");
}

void TestShapePool() {
  std::printf("ad-hoc shape pool\n");
  const size_t pool = AdhocPoolSize(kCacheCapacity);
  Check(pool >= 4 * kCacheCapacity,
        "pool is several times the default plan-cache capacity (" +
            std::to_string(pool) + " vs " + std::to_string(kCacheCapacity) +
            ")");
  AdhocStream stream(1, pool);
  Check(stream.pool_size() == pool, "the grammar yields the full pool");
  std::set<std::string> keys;
  for (size_t r = 0; r < stream.pool_size(); ++r) {
    keys.insert(fedcal::FingerprintSql(stream.Make(r, 0).sql).canonical_sql);
  }
  Check(keys.size() == pool,
        "every shape has its own plan-cache key (" +
            std::to_string(keys.size()) + " distinct)");
  const double head = stream.sampler().HeadMass(kCacheCapacity);
  Check(head > 0.5 && head < 0.95,
        "the skewed draw puts most but not all mass on a cache-sized head "
        "(" + std::to_string(head) + ")");
}

void TestPercentiles() {
  std::printf("percentiles\n");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Percentile p99 = PercentileOf(v, 99);
  Check(p99.value == 990 && p99.beyond == 10 && p99.supported(),
        "p99 of 1..1000 is 990 with 10 samples beyond");
  v.pop_back();
  Check(!PercentileOf(v, 99).supported(), "p99 of 999 samples is refused");
  Check(PercentileOf(v, 50).value == 500, "p50 of 1..999 is 500");
  Check(MinSamplesFor(99) == 1000 && MinSamplesFor(90) == 100 &&
            MinSamplesFor(50) == 20,
        "minimum samples: p99 1000, p90 100, p50 20");
  Check(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5,
        "median of odd and even counts");
}

Span Make(int32_t parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  std::printf("span self time\n");
  // root [0,100] > a [10,40] > a1 [20,30]; root > b [50,60];
  // root > c [55,70] overlaps b, so the root's covered part is the union
  // [10,40] + [50,70].
  const std::vector<Span> spans = {Make(-1, 0, 100), Make(0, 10, 40),
                                   Make(1, 20, 30), Make(0, 50, 60),
                                   Make(0, 55, 70)};
  const std::vector<int64_t> self = SelfTimes(spans);
  Check(self == std::vector<int64_t>({50, 20, 10, 10, 15}),
        "self = duration minus the union of child intervals");

  SpanLog log;
  const uint32_t root = log.Name("root");
  const uint32_t step = log.Name("step");
  const uint32_t work = log.Name("work");
  log.Begin(root, 0);
  for (int i = 0; i < 5; ++i) {
    log.Begin(step, 0);
    log.End(/*coalescible=*/true);
  }
  log.Begin(step, 0);
  log.Begin(work, 1);
  log.End();
  log.End(/*coalescible=*/true);
  log.Begin(step, 0);
  log.End(/*coalescible=*/true);
  log.End();
  const auto totals = log.Totals();
  Check(log.size() == 5, "childless sibling steps coalesce (" +
                             std::to_string(log.size()) + " spans kept)");
  int64_t self_sum = 0;
  for (const auto& [name, t] : totals) self_sum += t.self_ns;
  Check(self_sum == totals.at("root").total_ns,
        "self times over the tree add up to the root's duration");
}

void TestComparison() {
  std::printf("result comparison\n");
  using fedcal::Value;
  auto table = [](std::vector<fedcal::Row> rows) {
    auto t = std::make_shared<fedcal::Table>(
        "t", fedcal::Schema({{"k", fedcal::DataType::kString},
                             {"v", fedcal::DataType::kDouble}}));
    for (auto& r : rows) t->AppendRowUnchecked(std::move(r));
    return t;
  };
  const auto want = table({{Value("a"), Value(1.0)}, {Value("b"), Value(2.0)}});
  std::string why;
  Check(SameResult(*table({{Value("b"), Value(2.0)}, {Value("a"), Value(1.0)}}),
                   *want, 1e-9, &why),
        "row order does not matter");
  Check(SameResult(*table({{Value("a"), Value(1.0 + 1e-13)},
                           {Value("b"), Value(2.0)}}),
                   *want, 1e-9, &why),
        "doubles compare within relative tolerance");
  Check(!SameResult(
            *table({{Value("a"), Value(1.0)}, {Value("b"), Value(2.1)}}),
            *want, 1e-9, &why),
        "a wrong value is a mismatch");
  Check(!SameResult(*table({{Value("a"), Value(1.0)}, {Value("a"), Value(1.0)},
                            {Value("b"), Value(2.0)}}),
                    *want, 1e-9, &why),
        "a duplicated row is a mismatch (multiset, not set)");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestGenerators();
  perfbench::TestShapePool();
  perfbench::TestPercentiles();
  perfbench::TestSelfTime();
  perfbench::TestComparison();
  std::printf("\n%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
