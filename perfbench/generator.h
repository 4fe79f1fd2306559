// Seeded query generators for the benchmark workloads.
//
// The generators are the benchmark's own: they depend on nothing in the
// program but the SQL dialect it accepts, so their draw sequence stays
// fixed for a seed while the program changes underneath. (The program's
// Rng::Zipf does not terminate for skew <= 1, see README.md, so the skew
// here comes from an inverse-CDF sampler of its own.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: a small, fully specified generator whose sequence does not
/// depend on the standard library's distribution implementations.
class Prng {
 public:
  explicit Prng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n);
  /// Uniform double in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

/// Draws ranks in [0, n) with probability proportional to 1 / (rank+1)^s,
/// by binary search over the cumulative weights. Any s >= 0 works.
class SkewedSampler {
 public:
  SkewedSampler(size_t n, double s);
  size_t Draw(Prng* prng) const;
  /// Probability mass of the first `k` ranks.
  double HeadMass(size_t k) const;

 private:
  std::vector<double> cdf_;
};

/// One statement shape of the ad-hoc workload: SQL text with `{0}`,
/// `{1}`, ... placeholders, and for each placeholder the literal texts an
/// instance may substitute.
struct Shape {
  std::string text;
  std::vector<std::vector<std::string>> choices;
};

/// Ad-hoc join/aggregate shapes over employee/sales/department. The pool
/// is a fixed, seed-independent enumeration of a small grammar (1-, 2- and
/// 3-way joins, grouping, aggregates, range predicates), so every seed
/// sees the same shapes; only the draw sequence and literals vary. Built
/// on first use (a few ms) and shared after that.
const std::vector<Shape>& AdhocShapePool();

/// The shape pool size the ad-hoc workload draws from: five times the
/// integrator's default prepared-plan cache capacity, so a skewed draw
/// hits the cache on the head and misses on the tail.
size_t AdhocPoolSize(size_t plan_cache_capacity);

/// One generated statement. `key` identifies the exact SQL text (shape
/// plus literal choice), so results can be grouped without hashing text.
struct Query {
  uint64_t key = 0;
  std::string sql;
};

/// Ad-hoc stream: shape rank drawn with skew `skew`, literals uniform.
class AdhocStream {
 public:
  AdhocStream(uint64_t seed, size_t pool_size, double skew = 1.0);
  Query Next();
  /// Instance `literal` of the shape at `rank` (for warm-up passes).
  Query Make(size_t rank, uint64_t literal) const;
  size_t pool_size() const { return pool_.size(); }
  const SkewedSampler& sampler() const { return sampler_; }

 private:
  std::vector<Shape> pool_;
  SkewedSampler sampler_;
  Prng prng_;
};

/// Template stream for the paper's QT1-QT4 with its ten instances each
/// (0..9). The stream is a sequence of blocks, each a seeded permutation of
/// all forty (type, instance) pairs, so runs of different seeds differ in
/// order but carry the same mix; with only a few hundred paper-scale
/// queries in a run, an independent draw per query would make the mix, and
/// with it the host cost, vary from seed to seed. The caller renders the
/// pairs with Scenario::MakeQueryInstance.
struct TemplateDraw {
  int type = 1;
  int instance = 0;
  uint64_t key() const { return static_cast<uint64_t>(type * 100 + instance); }
};

class TemplateStream {
 public:
  explicit TemplateStream(uint64_t seed) : prng_(seed) {}
  TemplateDraw Next();

  static constexpr int kTypes = 4;
  static constexpr int kInstances = 10;
  static constexpr size_t kBlock = kTypes * kInstances;

 private:

  Prng prng_;
  std::vector<TemplateDraw> block_;
  size_t pos_ = 0;
};

/// Seed mixing for independent sub-streams of one run (query draws, fault
/// schedule).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench
