#include "generator.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t Prng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Prng::Below(uint64_t n) {
  // Multiply-shift: bias is below 2^-32 for the small n used here.
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

double Prng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Prng p(seed * 0x2545f4914f6cdd1dULL + stream);
  p.Next();
  return p.Next();
}

SkewedSampler::SkewedSampler(size_t n, double s) {
  cdf_.resize(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t SkewedSampler::Draw(Prng* prng) const {
  const double u = prng->Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<size_t>(it - cdf_.begin());
}

double SkewedSampler::HeadMass(size_t k) const {
  if (k == 0 || cdf_.empty()) return 0.0;
  return cdf_[std::min(k, cdf_.size()) - 1];
}

namespace {

struct Pred {
  const char* column;
  const char* op;
  std::vector<std::string> literals;
};

struct JoinForm {
  const char* from;
  std::vector<const char*> keys;
  std::vector<const char*> measures;
  std::vector<Pred> preds;
  std::vector<const char*> projections;
};

// Literal sets keep every predicate between ~10% and ~90% selective on
// the scenario's generated columns, so no instance returns an empty set.
const std::vector<std::string> kSalary = {"40000.0", "60000.0", "80000.0",
                                          "100000.0"};
const std::vector<std::string> kEdLevel = {"9", "11", "13", "15"};
const std::vector<std::string> kWorkdept = {"15", "30", "45", "55"};
const std::vector<std::string> kAmountLow = {"1000.0", "2500.0", "4000.0",
                                             "6000.0"};
const std::vector<std::string> kAmountHigh = {"4000.0", "6000.0", "8000.0",
                                              "9500.0"};
const std::vector<std::string> kBudget = {"100000.0", "300000.0",
                                          "500000.0", "700000.0"};

std::vector<JoinForm> JoinForms() {
  const Pred salary{"e.salary", ">", kSalary};
  const Pred edlevel{"e.edlevel", ">=", kEdLevel};
  const Pred workdept{"e.workdept", "<", kWorkdept};
  const Pred amount_gt{"s.amount", ">", kAmountLow};
  const Pred amount_lt{"s.amount", "<", kAmountHigh};
  const Pred budget{"d.budget", ">", kBudget};
  return {
      {"employee e",
       {"e.workdept", "e.edlevel"},
       {"e.salary", "e.edlevel"},
       {salary, edlevel, workdept},
       {"e.empno", "e.salary", "e.workdept"}},
      {"sales s",
       {"s.region"},
       {"s.amount"},
       {amount_gt, amount_lt},
       {"s.salesid", "s.amount", "s.region"}},
      {"department d",
       {"d.location"},
       {"d.budget"},
       {budget},
       {"d.deptid", "d.deptno", "d.location"}},
      {"employee e JOIN sales s ON s.empno = e.empno",
       {"e.workdept", "e.edlevel", "s.region"},
       {"e.salary", "s.amount"},
       {salary, edlevel, amount_gt, amount_lt},
       {"e.empno", "s.amount", "s.region"}},
      {"employee e JOIN department d ON e.workdept = d.deptno",
       {"e.workdept", "e.edlevel", "d.location"},
       {"e.salary", "d.budget"},
       {salary, edlevel, workdept, budget},
       {"e.empno", "d.location", "e.salary"}},
      {"employee e JOIN sales s ON s.empno = e.empno "
       "JOIN department d ON e.workdept = d.deptno",
       {"e.workdept", "s.region", "d.location"},
       {"e.salary", "s.amount", "d.budget"},
       {salary, amount_gt, amount_lt, budget},
       {"e.empno", "s.amount", "d.location"}},
  };
}

std::vector<std::string> Aggregates(const JoinForm& f) {
  std::vector<std::string> aggs = {"COUNT(*)"};
  for (const char* m : f.measures) {
    for (const char* fn : {"SUM", "AVG", "MIN", "MAX"}) {
      aggs.push_back(std::string(fn) + "(" + m + ")");
    }
  }
  return aggs;
}

// WHERE clause for a predicate subset; appends its literal choices.
std::string Where(const std::vector<const Pred*>& preds, Shape* shape) {
  std::string out;
  for (const Pred* p : preds) {
    out += out.empty() ? " WHERE " : " AND ";
    out += std::string(p->column) + " " + p->op + " {" +
           std::to_string(shape->choices.size()) + "}";
    shape->choices.push_back(p->literals);
  }
  return out;
}

std::vector<std::vector<const Pred*>> PredicateSets(const JoinForm& f) {
  std::vector<std::vector<const Pred*>> sets;
  for (size_t i = 0; i < f.preds.size(); ++i) {
    sets.push_back({&f.preds[i]});
    for (size_t j = i + 1; j < f.preds.size(); ++j) {
      sets.push_back({&f.preds[i], &f.preds[j]});
    }
  }
  return sets;
}

template <typename T>
void Shuffle(std::vector<T>* v, Prng* prng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[prng->Below(i)]);
  }
}

std::vector<Shape> BuildShapePool() {
  // Fixed seed: the pool is part of the benchmark's definition.
  Prng prng(0x5eed5);
  std::vector<std::vector<Shape>> per_form;
  for (const JoinForm& f : JoinForms()) {
    const std::vector<std::string> aggs = Aggregates(f);
    std::vector<Shape> agg_shapes;
    std::vector<Shape> other_shapes;
    for (const auto& preds : PredicateSets(f)) {
      std::vector<const char*> groups = {nullptr};
      groups.insert(groups.end(), f.keys.begin(), f.keys.end());
      for (const char* g : groups) {
        for (size_t a = 0; a < aggs.size(); ++a) {
          for (size_t b = a; b < aggs.size(); ++b) {
            Shape s;
            std::string select = g ? std::string(g) + ", " : "";
            select += aggs[a] + " AS a1";
            if (b != a) select += ", " + aggs[b] + " AS a2";
            s.text = "SELECT " + select + " FROM " + f.from;
            s.text += Where(preds, &s);
            if (g) s.text += std::string(" GROUP BY ") + g;
            agg_shapes.push_back(std::move(s));
          }
        }
        if (g) {
          Shape s;
          s.text = std::string("SELECT DISTINCT ") + g + " FROM " + f.from;
          s.text += Where(preds, &s);
          other_shapes.push_back(std::move(s));
        }
      }
      Shape s;
      std::string cols;
      for (const char* c : f.projections) {
        cols += (cols.empty() ? "" : ", ") + std::string(c);
      }
      s.text = "SELECT " + cols + " FROM " + f.from;
      s.text += Where(preds, &s);
      other_shapes.push_back(std::move(s));
    }
    Shuffle(&agg_shapes, &prng);
    Shuffle(&other_shapes, &prng);
    // Aggregates dominate, as in the paper's templates; distinct and plain
    // projections keep one shape in six.
    std::vector<Shape> mixed;
    size_t ai = 0;
    size_t oi = 0;
    while (ai < agg_shapes.size() || oi < other_shapes.size()) {
      const bool take_other =
          (mixed.size() % 6 == 5 && oi < other_shapes.size()) ||
          ai >= agg_shapes.size();
      mixed.push_back(
          std::move(take_other ? other_shapes[oi++] : agg_shapes[ai++]));
    }
    per_form.push_back(std::move(mixed));
  }
  // Interleave the join forms so every region of the popularity ranking
  // mixes 1-, 2- and 3-way joins.
  std::vector<Shape> pool;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (auto& form : per_form) {
      if (i < form.size()) {
        pool.push_back(std::move(form[i]));
        any = true;
      }
    }
    if (!any) break;
  }
  return pool;
}

}  // namespace

const std::vector<Shape>& AdhocShapePool() {
  static const std::vector<Shape> pool = BuildShapePool();
  return pool;
}

size_t AdhocPoolSize(size_t plan_cache_capacity) {
  return 5 * plan_cache_capacity;
}

AdhocStream::AdhocStream(uint64_t seed, size_t pool_size, double skew)
    : pool_(AdhocShapePool().begin(),
            AdhocShapePool().begin() +
                std::min(pool_size, AdhocShapePool().size())),
      sampler_(pool_size, skew),
      prng_(seed) {}

Query AdhocStream::Make(size_t rank, uint64_t literal) const {
  const Shape& shape = pool_[rank];
  Query q;
  q.sql.reserve(shape.text.size() + 16);
  uint64_t combo = 0;
  uint64_t rest = literal;
  for (size_t i = 0; i < shape.text.size(); ++i) {
    if (shape.text[i] == '{') {
      const size_t close = shape.text.find('}', i);
      const size_t slot = std::stoul(shape.text.substr(i + 1, close - i - 1));
      const auto& options = shape.choices[slot];
      const uint64_t pick = rest % options.size();
      rest /= options.size();
      combo = combo * options.size() + pick;
      q.sql += options[pick];
      i = close;
    } else {
      q.sql += shape.text[i];
    }
  }
  q.key = static_cast<uint64_t>(rank) << 16 | combo;
  return q;
}

Query AdhocStream::Next() {
  const size_t rank = sampler_.Draw(&prng_);
  return Make(rank, prng_.Next());
}

TemplateDraw TemplateStream::Next() {
  if (pos_ == block_.size()) {
    block_.clear();
    for (int type = 1; type <= kTypes; ++type) {
      for (int instance = 0; instance < kInstances; ++instance) {
        block_.push_back({type, instance});
      }
    }
    Shuffle(&block_, &prng_);
    pos_ = 0;
  }
  return block_[pos_++];
}

}  // namespace perfbench
