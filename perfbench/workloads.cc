#include "workloads.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "generator.h"
#include "reference.h"
#include "sim/fault_injector.h"
#include "spans.h"
#include "stats.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using fedcal::CompiledQuery;
using fedcal::GlobalPlanOption;
using fedcal::Integrator;
using fedcal::PlanCache;
using fedcal::PreparedPlanPtr;
using fedcal::QueryContext;
using fedcal::QueryOutcome;
using fedcal::QueryType;
using fedcal::Result;
using fedcal::Scenario;
using fedcal::ScenarioConfig;
using fedcal::Status;
using fedcal::TablePtr;

// ---------------------------------------------------------------------------
// Workload definitions. README.md says why each exists.

enum class Source { kAdhoc, kTemplates };

struct WorkloadDef {
  const char* name;
  bool serving;
  size_t large_rows;
  size_t small_rows;
  bool full_replication;
  Source source;
  /// Closed-loop clients: virtual clients in sim mode, worker threads in
  /// serving mode (one client per worker).
  int clients;
  /// Table-1 load phases cycle, a seeded fault schedule runs, and
  /// deadlines, hedging and re-routing are on.
  bool chaos;
  /// Table-1 load phase held for the whole run (0: none applied).
  int fixed_phase;
  /// The tail percentile reported for latencies: the highest that a run of
  /// the benchmark's length supports. p99 needs 1000 queries; the paper-
  /// scale workload completes a few hundred, which supports p95.
  double tail_p;
  /// Minimum size of the virtual-response sample. The chaos workload takes
  /// many fault periods into it, so the tail does not hinge on a few.
  size_t virtual_sample;
  /// Completions per window of the windowed host throughput and CPU
  /// medians (about a second of the run, or one template block).
  size_t window;
};

const std::vector<WorkloadDef>& Defs() {
  static const std::vector<WorkloadDef> defs = {
      {"routing_adhoc", false, 500, 100, true, Source::kAdhoc, 4, true, 0,
       99.0, 30'000, 2'000},
      {"analytic_100k", false, 100'000, 1'000, false, Source::kTemplates, 4,
       false, 5, 95.0, 0, 40},
      {"serving_w3", true, 20'000, 1'000, true, Source::kTemplates, 3, false,
       0, 99.0, 0, 80},
  };
  return defs;
}

/// Setups per untraced run (setup_s is their median): at least this
/// many, and more until they add up to kSetupMinSeconds.
constexpr int kSetupMinRepeats = 3;
constexpr double kSetupMinSeconds = 1.0;
/// A measured phase stops submitting at this many wall seconds even if
/// the virtual sample is incomplete; the run then reports itself invalid.
constexpr double kPhaseHardCapS = 50.0;
/// Virtual seconds per Table-1 load phase in the chaos workload.
constexpr double kChaosPeriodS = 0.5;

// ---------------------------------------------------------------------------
// Host measurements.

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

long CurrentRssKb() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

// ---------------------------------------------------------------------------
// Query generation.

class QueryGen {
 public:
  QueryGen(const WorkloadDef& def, uint64_t seed, const Scenario* sc)
      : def_(def),
        sc_(sc),
        adhoc_(SubSeed(seed, 1),
               AdhocPoolSize(fedcal::IiConfig{}.plan_cache_capacity)),
        templates_(SubSeed(seed, 1)) {}

  Query Next() {
    if (def_.source == Source::kAdhoc) return adhoc_.Next();
    return Render(templates_.Next());
  }

  /// Queries per block of the stream over which the mix is exact; the
  /// phase's sample covers whole blocks.
  size_t block() const {
    return def_.source == Source::kAdhoc ? 1 : TemplateStream::kBlock;
  }

  /// Fixed warm-up list: the head of the ad-hoc popularity ranking, or two
  /// instances of every template.
  std::vector<Query> WarmUp() const {
    std::vector<Query> out;
    if (def_.source == Source::kAdhoc) {
      const size_t head = fedcal::IiConfig{}.plan_cache_capacity;
      for (size_t r = 0; r < head; ++r) out.push_back(adhoc_.Make(r, 0));
    } else {
      for (int type = 1; type <= 4; ++type) {
        for (int instance : {0, 5}) out.push_back(Render({type, instance}));
      }
    }
    return out;
  }

  /// One query per distinct statement shape, for the cold-compile replay.
  std::vector<Query> Shapes(size_t limit) const {
    std::vector<Query> out;
    if (def_.source == Source::kAdhoc) {
      for (size_t r = 0; r < std::min(limit, adhoc_.pool_size()); ++r) {
        out.push_back(adhoc_.Make(r, 0));
      }
    } else {
      for (int type = 1; type <= 4; ++type) out.push_back(Render({type, 0}));
    }
    return out;
  }

 private:
  Query Render(TemplateDraw d) const {
    return {d.key(), sc_->MakeQueryInstance(static_cast<QueryType>(d.type),
                                            d.instance)};
  }

  const WorkloadDef& def_;
  const Scenario* sc_;
  AdhocStream adhoc_;
  TemplateStream templates_;
};

// ---------------------------------------------------------------------------
// The testbed: scenario plus the chaos schedule that cycles load phases and
// arms faults, one period of virtual time at a time.

class Chaos {
 public:
  Chaos(Scenario* sc, uint64_t seed)
      : sc_(sc), ids_(sc->server_ids()), prng_(seed) {}

  void Start() { Tick(); }

 private:
  // One fault per period, outages and congestion alternating, each server
  // hit once per rotation in a seeded order, with seeded timing: every seed
  // sees the same amount of stress, so the tail it causes does not swing
  // with how many faults a seed happened to draw.
  void Tick() {
    sc_->ApplyPhase(1 + period_ % 8);
    if (period_ % (2 * ids_.size()) == 0) {
      for (auto* order : {&outage_order_, &congestion_order_}) {
        *order = ids_;
        for (size_t i = order->size(); i > 1; --i) {
          std::swap((*order)[i - 1], (*order)[prng_.Below(i)]);
        }
      }
    }
    const double start = sc_->sim().Now();
    const size_t slot = (period_ / 2) % ids_.size();
    fedcal::FaultSchedule faults;
    // Outages end inside their period, so at most one server is down and
    // every table keeps two live replicas.
    if (period_ % 2 == 0) {
      const double d = kChaosPeriodS * (0.2 + 0.1 * prng_.Unit());
      const double at = start + (kChaosPeriodS - d) * prng_.Unit();
      faults.Outage(at, outage_order_[slot], d);
    } else {
      const double d = kChaosPeriodS * (0.3 + 0.1 * prng_.Unit());
      const double at = start + (kChaosPeriodS - d) * prng_.Unit();
      const double factor = 4.0 + 2.0 * prng_.Unit();
      faults.Congestion(at, congestion_order_[slot], factor, factor, d);
    }
    const Status armed = sc_->fault_injector().Arm(faults);
    if (!armed.ok()) {
      std::fprintf(stderr, "fault schedule rejected: %s\n",
                   armed.ToString().c_str());
    }
    ++period_;
    sc_->sim().ScheduleAfter(kChaosPeriodS, [this] { Tick(); });
  }

  Scenario* sc_;
  const std::vector<std::string> ids_;
  std::vector<std::string> outage_order_;
  std::vector<std::string> congestion_order_;
  Prng prng_;
  size_t period_ = 0;
};

struct Testbed {
  // Declared first so it is destroyed last: the scenario's pending events
  // point at it.
  std::unique_ptr<Chaos> chaos;
  std::unique_ptr<Scenario> sc;

  void Reset() {
    sc.reset();
    chaos.reset();
  }
};

// ---------------------------------------------------------------------------
// Results kept for the correctness check and the engine replay: the first
// result of every distinct (statement, executed plan) pair.

struct StoredResult {
  TablePtr table;
  GlobalPlanOption plan;
  uint64_t count = 0;
};

struct Store {
  std::mutex mu;
  std::unordered_map<uint64_t, std::string> sql;
  std::map<std::pair<uint64_t, size_t>, StoredResult> results;

  void NoteSql(const Query& q) {
    std::lock_guard<std::mutex> lock(mu);
    if (!sql.count(q.key)) sql.emplace(q.key, q.sql);
  }
  void Keep(uint64_t key, const QueryOutcome& outcome) {
    std::lock_guard<std::mutex> lock(mu);
    StoredResult& r = results[{key, outcome.executed_plan.identity}];
    if (r.count++ == 0) {
      r.table = outcome.table;
      r.plan = outcome.executed_plan;
    }
  }
};

// ---------------------------------------------------------------------------
// One measured phase.

struct Record {
  uint64_t key = 0;
  size_t index = 0;
  int64_t submit_ns = 0;
  int64_t executed_ns = 0;  // Execute returned
  int64_t done_ns = 0;      // completion callback ran
  double virtual_s = 0.0;
  uint32_t fragments = 0;
  bool ok = false;
};

/// Timings the traced run takes around single calls.
struct CallTimes {
  int64_t prepare_hit_ns = 0;
  uint64_t prepare_hits = 0;
  int64_t prepare_miss_ns = 0;
  uint64_t prepare_misses = 0;
  int64_t exclusion_wait_ns = 0;
  int64_t execute_call_ns = 0;
  uint64_t execute_calls = 0;
  uint64_t candidates = 0;
  uint64_t routed = 0;

  void Merge(const CallTimes& o) {
    prepare_hit_ns += o.prepare_hit_ns;
    prepare_hits += o.prepare_hits;
    prepare_miss_ns += o.prepare_miss_ns;
    prepare_misses += o.prepare_misses;
    exclusion_wait_ns += o.exclusion_wait_ns;
    execute_call_ns += o.execute_call_ns;
    execute_calls += o.execute_calls;
    candidates += o.candidates;
    routed += o.routed;
  }
};

/// Span name ids in `log`; all zero (and unused) in an untraced run.
struct SpanNames {
  uint32_t run = 0, loop = 0, generate = 0, complete = 0, exclusive = 0,
           prepare = 0, route = 0, execute = 0, step = 0, await = 0;

  explicit SpanNames(SpanLog* log) {
    if (log == nullptr) return;
    run = log->Name("client.run");
    loop = log->Name("client.loop");
    generate = log->Name("client.generate");
    complete = log->Name("client.complete");
    exclusive = log->Name("sched.exclusive");
    prepare = log->Name("compile.prepare");
    route = log->Name("route");
    execute = log->Name("exec.execute_call");
    step = log->Name("sim.step");
    await = log->Name("sched.await");
  }
};

/// Program counters read at the edges of a phase.
struct Counters {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  int64_t main_thread_cpu_ns = 0;
  double virtual_now = 0.0;
  size_t events = 0;
  PlanCache::Stats cache;
  double server_busy_s = 0.0;
  double server_slots = 0.0;
  uint64_t fragments_submitted = 0;
  long rss_kb = 0;

  static Counters Read(Scenario* sc) {
    Counters c;
    c.wall_ns = NowNs();
    c.cpu_ns = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    c.main_thread_cpu_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    // Event-thread-owned state: read under the dispatch exclusion.
    sc->ctx().RunExclusive([&] {
      c.virtual_now = sc->ctx().Now();
      c.events = sc->serving() ? sc->serving()->fired_events()
                               : sc->sim().fired_events();
      c.cache = sc->integrator().plan_cache().stats();
      for (const std::string& id : sc->server_ids()) {
        fedcal::RemoteServer& s = sc->server(id);
        c.server_busy_s += s.total_busy_seconds();
        c.server_slots += s.config().num_workers;
        c.fragments_submitted +=
            sc->telemetry().metrics.counter("server.submitted." + id).value();
      }
    });
    c.rss_kb = CurrentRssKb();
    return c;
  }
};

struct Phase {
  /// The first queries by submission order, whose latencies and modelled
  /// response times are reported: enough for a supported tail percentile.
  size_t sample = 0;
  /// (wall, process CPU) stamps after every `window` completions.
  size_t window = 1;
  size_t completions = 0;
  std::vector<std::pair<int64_t, int64_t>> marks;
  std::deque<Record> records;
  std::mutex mu;  // records and the generator, in serving mode
  std::atomic<size_t> first_done{0};
  /// Largest resident set seen at a window mark, and its value when the
  /// sample completed: memory at a fixed amount of work, so a faster
  /// program is not charged for the extra queries it fits into the run
  /// while the tracer keeps every trace.
  std::atomic<long> peak_rss_kb{0};
  std::atomic<long> peak_rss_kb_at_sample{0};
  /// Resident set at the first window mark, once the allocator holds the
  /// workload's transient working set.
  long rss_first_mark_kb = 0;

  void NotePeakRss() {
    const long rss = CurrentRssKb();
    long seen = peak_rss_kb.load();
    while (rss > seen && !peak_rss_kb.compare_exchange_weak(seen, rss)) {
    }
  }
  int64_t deadline_ns = 0;
  int64_t hard_ns = 0;
  std::atomic<bool> hit_hard_cap{false};
  CallTimes calls;
  int64_t worker_cpu_ns = 0;

  void NoteDone(const Record* rec) {
    if (rec->index < sample && ++first_done == sample) {
      NotePeakRss();
      peak_rss_kb_at_sample = peak_rss_kb.load();
    }
  }

  /// Runs in the completion callback (the event thread in both modes).
  void OnCompleted(const Record* rec) {
    NoteDone(rec);
    if (++completions % window == 0) {
      marks.emplace_back(NowNs(), CpuNs(CLOCK_PROCESS_CPUTIME_ID));
      NotePeakRss();
      if (completions == window) rss_first_mark_kb = CurrentRssKb();
    }
  }

  bool ShouldStop() {
    const int64_t now = NowNs();
    if (now >= hard_ns) {
      hit_hard_cap = true;
      return true;
    }
    return now >= deadline_ns && first_done.load() >= sample;
  }
};

/// Calls into the program for one query: Compile (or, when traced, its two
/// halves, timed separately) and Execute, and records the completion.
class Client {
 public:
  Client(Scenario* sc, Store* store, SpanLog* spans, const SpanNames& names)
      : sc_(sc), store_(store), spans_(spans), n_(names) {}

  Result<CompiledQuery> Compile(const std::string& sql, uint64_t id,
                                CallTimes* calls) {
    Integrator& ii = sc_->integrator();
    if (spans_ == nullptr) return ii.Compile(sql);
    // Exactly what Integrator::Compile does, with the exclusion wait and
    // both phases timed.
    QueryContext ctx;
    Result<PreparedPlanPtr> prepared = Status::Internal("prepare never ran");
    int64_t called = 0;
    int64_t entered = 0;
    int64_t left = 0;
    {
      ScopedSpan wait(spans_, n_.exclusive, id);
      called = NowNs();
      sc_->ctx().RunExclusive([&] {
        entered = NowNs();
        ScopedSpan prepare(spans_, n_.prepare, id);
        prepared = ii.Prepare(sql, &ctx);
        left = NowNs();
      });
    }
    calls->exclusion_wait_ns += entered - called;
    if (ctx.cache_hit) {
      calls->prepare_hit_ns += left - entered;
      ++calls->prepare_hits;
    } else {
      calls->prepare_miss_ns += left - entered;
      ++calls->prepare_misses;
    }
    if (!prepared.ok()) return prepared.status();
    ScopedSpan route(spans_, n_.route, id);
    Result<CompiledQuery> compiled = ii.Route(*prepared, &ctx);
    if (compiled.ok()) {
      calls->candidates += compiled->options.size();
      ++calls->routed;
    }
    return compiled;
  }

  void Execute(const CompiledQuery& compiled, Record* rec, CallTimes* calls,
               std::function<void()> after) {
    ScopedSpan span(spans_, n_.execute, rec->index);
    const int64_t start = NowNs();
    sc_->integrator().Execute(
        compiled, [this, rec, after = std::move(after)](
                      Result<QueryOutcome> r) {
          Finish(rec, r);
          after();
        });
    rec->executed_ns = NowNs();
    calls->execute_call_ns += rec->executed_ns - start;
    ++calls->execute_calls;
  }

  Store* store() { return store_; }

  void ReportFailure(uint64_t key, const Status& st) {
    if (failures_reported_.fetch_add(1) < 5) {
      std::fprintf(stderr, "query %llu failed: %s\n",
                   static_cast<unsigned long long>(key),
                   st.ToString().c_str());
    }
  }

 private:
  void Finish(Record* rec, const Result<QueryOutcome>& r) {
    // Serving completions run on the dispatcher thread, which has no
    // client span to nest under.
    ScopedSpan span(sc_->serving() ? nullptr : spans_, n_.complete,
                    rec->index);
    rec->done_ns = NowNs();
    if (!r.ok()) {
      ReportFailure(rec->key, r.status());
      return;
    }
    rec->ok = true;
    rec->virtual_s = r->total_response_seconds;
    rec->fragments =
        static_cast<uint32_t>(r->executed_plan.fragment_choices.size());
    store_->Keep(rec->key, *r);
  }

  Scenario* sc_;
  Store* store_;
  SpanLog* spans_;
  const SpanNames& n_;
  std::atomic<int> failures_reported_{0};
};

using Feed = std::function<bool(Query*)>;

/// Closed loop over the simulator: `clients` queries in flight; each
/// completion callback submits the next query.
class SimLoop {
 public:
  SimLoop(Scenario* sc, Client* client, Phase* phase, Feed feed, int clients,
          SpanLog* spans, const SpanNames& names)
      : sc_(sc),
        client_(client),
        phase_(phase),
        feed_(std::move(feed)),
        clients_(clients),
        spans_(spans),
        n_(names) {}

  void Run() {
    ScopedSpan root(spans_, n_.run);
    Pump();
    fedcal::Simulator& sim = sc_->sim();
    while (in_flight_ > 0) {
      bool stepped = false;
      {
        ScopedSpan step(spans_, n_.step, 0, /*coalescible=*/true);
        stepped = sim.Step();
      }
      if (!stepped) break;
    }
  }

 private:
  void Pump() {
    while (!exhausted_ && in_flight_ < clients_) Submit();
  }

  void Submit() {
    Query q;
    {
      ScopedSpan gen(spans_, n_.generate);
      if (!feed_(&q)) {
        exhausted_ = true;
        return;
      }
    }
    phase_->records.emplace_back();
    Record* rec = &phase_->records.back();
    rec->key = q.key;
    rec->index = phase_->records.size() - 1;
    client_->store()->NoteSql(q);
    rec->submit_ns = NowNs();
    Result<CompiledQuery> compiled =
        client_->Compile(q.sql, rec->index, &phase_->calls);
    if (!compiled.ok()) {
      client_->ReportFailure(q.key, compiled.status());
      phase_->NoteDone(rec);
      return;
    }
    ++in_flight_;
    client_->Execute(*compiled, rec, &phase_->calls, [this, rec] {
      --in_flight_;
      phase_->OnCompleted(rec);
      Pump();
    });
  }

  Scenario* sc_;
  Client* client_;
  Phase* phase_;
  Feed feed_;
  int clients_;
  SpanLog* spans_;
  const SpanNames& n_;
  int in_flight_ = 0;
  bool exhausted_ = false;
};

/// Closed loop on the serving runtime: one client per worker thread, each
/// blocking on its query's completion before submitting the next.
class ServingLoop {
 public:
  ServingLoop(Scenario* sc, Client* client, Phase* phase, Feed feed,
              int clients, SpanLog* spans, const SpanNames& names)
      : sc_(sc),
        client_(client),
        phase_(phase),
        feed_(std::move(feed)),
        clients_(clients),
        spans_(spans),
        n_(names) {}

  void Run() {
    fedcal::ServingRuntime* rt = sc_->serving();
    for (int c = 0; c < clients_; ++c) rt->Submit([this] { Worker(); });
    rt->WaitIdle();
  }

 private:
  void Worker() {
    fedcal::ServingRuntime* rt = sc_->serving();
    CallTimes calls;
    const int64_t cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    {
      ScopedSpan root(spans_, n_.loop);
      for (;;) {
        Query q;
        Record* rec = nullptr;
        {
          ScopedSpan gen(spans_, n_.generate);
          std::lock_guard<std::mutex> lock(phase_->mu);
          if (!feed_(&q)) break;
          phase_->records.emplace_back();
          rec = &phase_->records.back();
          rec->index = phase_->records.size() - 1;
        }
        rec->key = q.key;
        client_->store()->NoteSql(q);
        rec->submit_ns = NowNs();
        Result<CompiledQuery> compiled =
            client_->Compile(q.sql, rec->index, &calls);
        if (!compiled.ok()) {
          client_->ReportFailure(q.key, compiled.status());
          phase_->NoteDone(rec);
          continue;
        }
        // Written by the completion callback under the dispatch exclusion
        // and read by AwaitCondition under the same exclusion.
        bool finished = false;
        client_->Execute(*compiled, rec, &calls, [this, rec, &finished] {
          phase_->OnCompleted(rec);
          finished = true;
        });
        {
          ScopedSpan await(spans_, n_.await, rec->index);
          rt->AwaitCondition([&finished] { return finished; });
        }
      }
    }
    const int64_t cpu = CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    std::lock_guard<std::mutex> lock(phase_->mu);
    phase_->calls.Merge(calls);
    phase_->worker_cpu_ns += cpu;
  }

  Scenario* sc_;
  Client* client_;
  Phase* phase_;
  Feed feed_;
  int clients_;
  SpanLog* spans_;
  const SpanNames& n_;
};

void RunLoop(const WorkloadDef& def, Scenario* sc, Store* store, Phase* phase,
             Feed feed, SpanLog* spans) {
  const SpanNames names(spans);
  Client client(sc, store, spans, names);
  if (def.serving) {
    ServingLoop(sc, &client, phase, std::move(feed), def.clients, spans, names)
        .Run();
  } else {
    SimLoop(sc, &client, phase, std::move(feed), def.clients, spans, names)
        .Run();
  }
}

// ---------------------------------------------------------------------------
// Setup: scenario construction, QCC attach, warm-up pass.

ScenarioConfig MakeScenarioConfig(const WorkloadDef& def) {
  // The data and the testbed's own random streams keep the scenario's
  // default seed: they are part of the workload, like the shape pool. The
  // run's seed drives the query stream and the fault schedule, which keeps
  // the host cost of a run from varying with the data drawn.
  ScenarioConfig cfg;
  cfg.large_rows = def.large_rows;
  cfg.small_rows = def.small_rows;
  cfg.full_replication = def.full_replication;
  if (def.serving) {
    cfg.exec_mode = fedcal::ExecMode::kServing;
    cfg.serving_workers = def.clients;
    cfg.serving_time_scale = 0.0;
  }
  return cfg;
}

Testbed Setup(const WorkloadDef& def, uint64_t seed) {
  Testbed tb;
  tb.sc = std::make_unique<Scenario>(MakeScenarioConfig(def));
  Scenario* sc = tb.sc.get();
  fedcal::QccConfig qcc;
  // As in the serving benches: between submissions the dispatcher would
  // otherwise free-run periodic probes through unbounded virtual time.
  if (def.serving) qcc.enable_availability_daemon = false;
  sc->qcc(qcc).AttachTo(&sc->integrator());
  if (def.chaos) {
    fedcal::IiConfig& ii = sc->integrator().mutable_config();
    ii.fault.enable_deadlines = true;
    ii.fault.enable_hedging = true;
    ii.reroute.enable = true;
  }
  if (def.fixed_phase > 0) sc->ApplyPhase(def.fixed_phase);

  QueryGen gen(def, seed, sc);
  const std::vector<Query> warm = gen.WarmUp();
  size_t next = 0;
  Store discard;
  Phase phase;
  phase.deadline_ns = phase.hard_ns = INT64_MAX;
  RunLoop(def, sc, &discard, &phase,
          [&](Query* q) {
            if (next == warm.size()) return false;
            *q = warm[next++];
            return true;
          },
          nullptr);
  if (def.chaos) {
    tb.chaos = std::make_unique<Chaos>(sc, SubSeed(seed, 2));
    tb.chaos->Start();
  }
  return tb;
}

// ---------------------------------------------------------------------------
// Phase results.

struct PhaseResult {
  size_t attempted = 0;
  size_t completed = 0;
  size_t failed = 0;
  double wall_s = 0.0;
  size_t windows = 0;
  double qps = 0.0;
  double cpu_ms_per_query = 0.0;
  double tail_p = 0.0;
  size_t sample = 0;
  Percentile latency_p50_ms, latency_tail_ms;
  Percentile virtual_p50_s, virtual_tail_s;
  bool hit_hard_cap = false;
  double peak_rss_mb = 0.0;
  /// Resident-set growth per query after the first window: what the run
  /// keeps per query (traces, caches), not the allocator's working set.
  double rss_growth_kb_per_query = 0.0;
  Counters before, after;
  CallTimes calls;
  int64_t worker_cpu_ns = 0;
  double completion_wait_us = 0.0;
  uint64_t fragments_used = 0;
};

/// Percentile of host latencies. Where a window of `window` completions
/// supports it, this is the median over windows of the window percentile,
/// so a burst of outside contention moves a few windows, not the result;
/// otherwise it is taken over the whole phase.
Percentile WindowedPercentile(std::vector<std::pair<int64_t, double>> done,
                              double p, size_t window) {
  std::vector<double> all;
  for (const auto& d : done) all.push_back(d.second);
  if (window < MinSamplesFor(p) || done.size() < 3 * window) {
    return PercentileOf(all, p);
  }
  std::sort(done.begin(), done.end());
  Percentile out;
  out.samples = done.size();
  out.beyond = done.size();
  std::vector<double> per_window;
  for (size_t start = 0; start + window <= done.size(); start += window) {
    std::vector<double> w;
    for (size_t i = start; i < start + window; ++i) w.push_back(done[i].second);
    const Percentile wp = PercentileOf(w, p);
    per_window.push_back(wp.value);
    out.beyond = std::min(out.beyond, wp.beyond);
  }
  out.value = Median(per_window);
  return out;
}

PhaseResult MeasurePhase(const WorkloadDef& def, Testbed* tb, uint64_t seed,
                         double seconds, Store* store, SpanLog* spans) {
  Scenario* sc = tb->sc.get();
  QueryGen gen(def, seed, sc);
  Phase phase;
  phase.window = def.window;
  const size_t sample = std::max(def.virtual_sample, MinSamplesFor(def.tail_p));
  phase.sample = (sample + gen.block() - 1) / gen.block() * gen.block();
  PhaseResult out;
  // Give back what earlier setups left free, so the phase's resident set
  // does not depend on which arena each new thread happened to reuse.
  malloc_trim(0);
  phase.NotePeakRss();
  out.before = Counters::Read(sc);
  phase.marks.emplace_back(out.before.wall_ns, out.before.cpu_ns);
  phase.deadline_ns = out.before.wall_ns + static_cast<int64_t>(seconds * 1e9);
  phase.hard_ns =
      out.before.wall_ns + static_cast<int64_t>(kPhaseHardCapS * 1e9);
  RunLoop(def, sc, store, &phase,
          [&](Query* q) {
            if (phase.ShouldStop()) return false;
            *q = gen.Next();
            return true;
          },
          spans);
  out.after = Counters::Read(sc);

  std::vector<std::pair<int64_t, double>> latency_ms;  // (done, latency)
  std::vector<double> virtual_s;
  double wait_us = 0.0;
  for (const Record& r : phase.records) {
    ++out.attempted;
    if (!r.ok) {
      ++out.failed;
      continue;
    }
    ++out.completed;
    out.fragments_used += r.fragments;
    wait_us += std::max<int64_t>(0, r.done_ns - r.executed_ns) / 1e3;
    // The sample is the same set of queries in every run of a seed (and
    // the same mix on the template workloads), however far a run gets
    // past it; in sim mode its modelled response times are identical.
    if (r.index < phase.sample) {
      latency_ms.emplace_back(r.done_ns, (r.done_ns - r.submit_ns) / 1e6);
      virtual_s.push_back(r.virtual_s);
    }
  }
  out.wall_s = (out.after.wall_ns - out.before.wall_ns) / 1e9;
  // Throughput and CPU per query are medians over windows of `window`
  // completions, so a burst of contention from outside the process moves
  // a few windows, not the result.
  std::vector<double> window_qps;
  std::vector<double> window_cpu_ms;
  for (size_t i = 1; i < phase.marks.size(); ++i) {
    const auto& [w0, c0] = phase.marks[i - 1];
    const auto& [w1, c1] = phase.marks[i];
    window_qps.push_back(phase.window / ((w1 - w0) / 1e9));
    window_cpu_ms.push_back((c1 - c0) / 1e6 / phase.window);
  }
  out.windows = window_qps.size();
  out.qps = Median(window_qps);
  out.cpu_ms_per_query = Median(window_cpu_ms);
  out.tail_p = def.tail_p;
  out.sample = phase.sample;
  out.latency_p50_ms = WindowedPercentile(latency_ms, 50, phase.window);
  out.latency_tail_ms =
      WindowedPercentile(latency_ms, def.tail_p, phase.window);
  out.virtual_p50_s = PercentileOf(virtual_s, 50);
  out.virtual_tail_s = PercentileOf(virtual_s, def.tail_p);
  out.hit_hard_cap = phase.hit_hard_cap;
  out.peak_rss_mb = phase.peak_rss_kb_at_sample / 1024.0;
  out.rss_growth_kb_per_query =
      static_cast<double>(out.after.rss_kb - phase.rss_first_mark_kb) /
      static_cast<double>(phase.completions - phase.window);
  out.calls = phase.calls;
  out.worker_cpu_ns = phase.worker_cpu_ns;
  out.completion_wait_us = out.completed ? wait_us / out.completed : 0.0;
  return out;
}

// ---------------------------------------------------------------------------
// Output-correctness check against the single-node reference.

struct CheckResult {
  size_t statements = 0;
  size_t pairs = 0;
  size_t mismatched_queries = 0;
  size_t reference_errors = 0;
};

CheckResult CheckResults(Scenario* sc, const Store& store) {
  Reference ref;
  for (const std::string& id : sc->server_ids()) {
    fedcal::RemoteServer& server = sc->server(id);
    for (const std::string& name : server.table_names()) {
      if (!ref.HasTable(name)) ref.AddTable(server.GetTable(name).MoveValue());
    }
  }
  CheckResult out;
  std::unordered_map<uint64_t, Result<TablePtr>> memo;
  int reported = 0;
  for (const auto& [k, stored] : store.results) {
    const uint64_t key = k.first;
    auto it = memo.find(key);
    if (it == memo.end()) {
      it = memo.emplace(key, ref.Run(store.sql.at(key))).first;
    }
    ++out.pairs;
    const Result<TablePtr>& want = it->second;
    std::string why;
    if (!want.ok()) {
      out.reference_errors += stored.count;
      why = "reference failed: " + want.status().ToString();
    } else if (!SameResult(*stored.table, **want, 1e-9, &why)) {
      out.mismatched_queries += stored.count;
    } else {
      continue;
    }
    if (reported++ < 5) {
      std::fprintf(stderr, "MISMATCH %s\n  %s\n", store.sql.at(key).c_str(),
                   why.c_str());
    }
  }
  out.statements = memo.size();
  return out;
}

// ---------------------------------------------------------------------------
// Post-run replays for the traced run.

struct EngineReplay {
  double fragment_us = 0.0;
  double work_units_per_query = 0.0;
  double rows_out_per_fragment = 0.0;
  /// Estimated engine host time per completed query, in seconds.
  double seconds_per_query = 0.0;
};

/// Re-executes the stored fragment plans through RemoteServer::ExecuteNow,
/// most frequent (statement, plan) pairs first, within a time budget, and
/// weights each pair by how often it ran. Run after the timed phase, so
/// its cost does not touch the end-to-end numbers.
EngineReplay ReplayEngine(Scenario* sc, const Store& store) {
  for (const std::string& id : sc->server_ids()) {
    sc->server(id).SetAvailable(true);  // an outage may be in progress
  }
  std::vector<const StoredResult*> order;
  for (const auto& [k, r] : store.results) order.push_back(&r);
  std::stable_sort(order.begin(), order.end(),
                   [](const StoredResult* a, const StoredResult* b) {
                     return a->count > b->count;
                   });
  const int64_t budget_end = NowNs() + 10'000'000'000;
  size_t failed = 0;
  double weight = 0.0, frag_weight = 0.0;
  double time_sum = 0.0, frag_time_sum = 0.0, work_sum = 0.0, rows_sum = 0.0;
  for (const StoredResult* r : order) {
    if (NowNs() > budget_end) break;
    double query_time = 0.0;
    double query_work = 0.0;
    for (const auto& choice : r->plan.fragment_choices) {
      fedcal::RemoteServer& server =
          sc->server(choice.wrapper_plan.server_id);
      // The first execution warms caches the run itself had warm; the
      // second is timed.
      (void)server.ExecuteNow(choice.wrapper_plan.plan);
      const int64_t t0 = NowNs();
      auto res = server.ExecuteNow(choice.wrapper_plan.plan);
      const double t = (NowNs() - t0) / 1e9;
      if (!res.ok()) ++failed;
      fedcal::FragmentResult last;
      if (res.ok()) last = res.MoveValue();
      query_time += t;
      query_work += last.exec_stats.work_units;
      frag_time_sum += r->count * t;
      rows_sum += r->count * (last.table ? last.table->num_rows() : 0);
      frag_weight += r->count;
    }
    time_sum += r->count * query_time;
    work_sum += r->count * query_work;
    weight += r->count;
  }
  if (failed > 0) {
    std::fprintf(stderr, "engine replay: %zu fragment executions failed\n",
                 failed);
  }
  EngineReplay out;
  if (weight > 0) {
    out.seconds_per_query = time_sum / weight;
    out.work_units_per_query = work_sum / weight;
  }
  if (frag_weight > 0) {
    out.fragment_us = frag_time_sum / frag_weight * 1e6;
    out.rows_out_per_fragment = rows_sum / frag_weight;
  }
  return out;
}

/// Mean Prepare time of a cold compile: the plan cache is cleared and one
/// instance of each distinct shape is prepared, as Compile does it.
double ColdCompileUs(const WorkloadDef& def, Scenario* sc, uint64_t seed) {
  QueryGen gen(def, seed, sc);
  Integrator& ii = sc->integrator();
  ii.plan_cache().Clear();
  std::vector<double> us;
  for (const Query& q : gen.Shapes(256)) {
    QueryContext ctx;
    int64_t t0 = 0, t1 = 0;
    sc->ctx().RunExclusive([&] {
      t0 = NowNs();
      (void)ii.Prepare(q.sql, &ctx);
      t1 = NowNs();
    });
    if (!ctx.cache_hit) us.push_back((t1 - t0) / 1e3);
  }
  double sum = 0.0;
  for (double u : us) sum += u;
  return us.empty() ? 0.0 : sum / us.size();
}

double StatsRefreshSeconds(Scenario* sc) {
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = NowNs();
    for (const std::string& id : sc->server_ids()) {
      sc->server(id).RefreshAllStats();
    }
    times.push_back((NowNs() - t0) / 1e9);
  }
  return Median(times);
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Prints the run's query counts, then the result object as the last line.
/// `failed` counts failed queries and result mismatches alike.
void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"run\": {\"attempted\": %zu, \"completed\": %zu, "
              "\"failed\": %zu, \"failed_share\": %s}}\n",
              attempted, attempted - failed, failed,
              Num(attempted ? static_cast<double>(failed) / attempted : 1.0)
                  .c_str());
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string Metadata(const RunOptions& o, const WorkloadDef& def) {
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"cores\": %u, \"host\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"git_commit\": "
      "\"%s\", \"clients\": %d, \"mode\": \"%s\", \"large_rows\": %zu, "
      "\"small_rows\": %zu}",
      def.name, static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, std::thread::hardware_concurrency(), host,
      PB_COMPILER, PB_BUILD_TYPE, o.git_commit.c_str(), def.clients,
      def.serving ? "serving" : "sim", def.large_rows, def.small_rows);
  return buf;
}

void PrintPhase(const char* label, const PhaseResult& p) {
  std::fprintf(stderr,
               "%s: attempted=%zu completed=%zu failed=%zu wall=%.3fs "
               "qps=%.1f cpu_ms/q=%.4f (medians of %zu windows) "
               "latency p50=%.4fms p%g=%.4fms (n=%zu) "
               "virtual p50=%.6fs p%g=%.6fs (n=%zu) fragments/q=%.3f\n",
               label, p.attempted, p.completed, p.failed, p.wall_s, p.qps,
               p.cpu_ms_per_query, p.windows,
               p.latency_p50_ms.value, p.tail_p, p.latency_tail_ms.value,
               p.latency_tail_ms.samples, p.virtual_p50_s.value, p.tail_p,
               p.virtual_tail_s.value, p.virtual_tail_s.samples,
               p.completed ? double(p.fragments_used) / p.completed : 0.0);
}

bool PhaseValid(const PhaseResult& p) {
  if (p.hit_hard_cap) {
    std::fprintf(stderr, "phase hit the %.0fs cap before %zu queries\n",
                 kPhaseHardCapS, p.sample);
    return false;
  }
  if (!p.latency_tail_ms.supported() || !p.virtual_tail_s.supported()) {
    std::fprintf(stderr, "p%g lacks %zu samples beyond it\n", p.tail_p,
                 Percentile::kMinBeyond);
    return false;
  }
  return true;
}

bool ReportCheck(const char* label, const CheckResult& c) {
  std::fprintf(stderr,
               "%s correctness: %zu statements, %zu (statement, plan) pairs, "
               "%zu mismatched queries, %zu reference errors\n",
               label, c.statements, c.pairs, c.mismatched_queries,
               c.reference_errors);
  return c.mismatched_queries == 0 && c.reference_errors == 0;
}

int RunUntraced(const RunOptions& o, const WorkloadDef& def) {
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const int64_t t0 = NowNs();
    Testbed tb = Setup(def, o.seed);
    setup_s.push_back((NowNs() - t0) / 1e9);
    return tb;
  };
  double setup_total = 0.0;
  auto more_setups = [&] {
    return setup_s.size() < kSetupMinRepeats ||
           setup_total < kSetupMinSeconds;
  };
  // Setups are timed in a fresh process, before the phase: after a long
  // phase the heap is strewn with the freed traces and a setup runs several
  // times slower. The serving workload is the exception. Its runtime
  // threads pick up malloc arenas left by the threads of earlier testbeds,
  // which makes the phase's resident set depend on which arena a thread
  // got. So it measures its first testbed and times the other setups after
  // its short phase.
  const bool measure_first = def.serving;
  Testbed tb;
  if (measure_first) {
    tb = timed_setup();
    setup_total = setup_s.back();
  } else {
    while (more_setups()) {
      tb.Reset();  // tear the previous testbed down before timing
      tb = timed_setup();
      setup_total += setup_s.back();
    }
  }
  Store store;
  const PhaseResult p =
      MeasurePhase(def, &tb, o.seed, o.seconds, &store, nullptr);
  PrintPhase("measured", p);
  const CheckResult check = CheckResults(tb.sc.get(), store);
  const bool correct = ReportCheck("measured", check) && PhaseValid(p);
  tb.Reset();
  while (more_setups()) {
    timed_setup().Reset();
    setup_total += setup_s.back();
  }
  std::fprintf(stderr, "setup: median %.4fs of %zu\n", Median(setup_s),
               setup_s.size());
  PrintResult(correct, p.attempted, p.failed + check.mismatched_queries,
              {
                  {"setup_s", Median(setup_s), "s"},
                  {"host_qps", p.qps, "1/s"},
                  {"host_cpu_ms_per_query", p.cpu_ms_per_query, "ms"},
                  {"host_latency_p50_ms", p.latency_p50_ms.value, "ms"},
                  {"host_latency_tail_ms", p.latency_tail_ms.value, "ms"},
                  {"virtual_response_p50_s", p.virtual_p50_s.value, "s"},
                  {"virtual_response_tail_s", p.virtual_tail_s.value, "s"},
                  {"peak_rss_mb", p.peak_rss_mb, "MB"},
              });
  return 0;
}

int RunTraced(const RunOptions& o, const WorkloadDef& def) {
  // Untraced phase: the baseline for the tracing overhead, and the
  // telemetry growth of the program's default configuration.
  Store base_store;
  Testbed tb = Setup(def, o.seed);
  const PhaseResult base =
      MeasurePhase(def, &tb, o.seed, o.seconds, &base_store, nullptr);
  PrintPhase("untraced", base);
  const size_t traces_retained = tb.sc->telemetry().tracer.size();
  const CheckResult base_check = CheckResults(tb.sc.get(), base_store);
  const bool base_ok = ReportCheck("untraced", base_check);
  tb.Reset();

  // Traced phase from an identical fresh setup.
  tb = Setup(def, o.seed);
  Scenario* sc = tb.sc.get();
  Store store;
  SpanLog spans;
  const PhaseResult p = MeasurePhase(def, &tb, o.seed, o.seconds, &store,
                                     &spans);
  PrintPhase("traced", p);
  const CheckResult check = CheckResults(sc, store);
  const bool correct = ReportCheck("traced", check) && base_ok &&
                       PhaseValid(base) && PhaseValid(p);

  const double q = static_cast<double>(p.completed);
  const auto totals = spans.Totals();
  auto self_s = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ns / 1e9;
  };
  auto count = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  // Client thread time: the root spans (one per sim run, one per serving
  // worker). Shares below are of this total.
  const char* root = def.serving ? "client.loop" : "client.run";
  double root_s = 0.0;
  if (auto it = totals.find(root); it != totals.end()) {
    root_s = it->second.total_ns / 1e9;
  }
  double attributed_s = 0.0;
  for (const auto& [name, t] : totals) {
    if (name != root) attributed_s += t.self_ns / 1e9;
  }

  const EngineReplay engine = ReplayEngine(sc, store);
  const double cold_us = ColdCompileUs(def, sc, o.seed);
  const double refresh_s = StatsRefreshSeconds(sc);

  double exec_self_us;
  if (def.serving) {
    // The event loop runs on the dispatcher thread: its CPU time is the
    // process's minus the client workers' and the idle main thread's.
    const int64_t main_cpu =
        p.after.main_thread_cpu_ns - p.before.main_thread_cpu_ns;
    exec_self_us = ((p.after.cpu_ns - p.before.cpu_ns) - p.worker_cpu_ns -
                    main_cpu) /
                   1e3 / q;
  } else {
    exec_self_us = self_s("sim.step") * 1e6 / q;
  }
  const PlanCache::Stats& c0 = p.before.cache;
  const PlanCache::Stats& c1 = p.after.cache;
  const double lookups = static_cast<double>((c1.hits - c0.hits) +
                                             (c1.misses - c0.misses));
  const double vt = p.after.virtual_now - p.before.virtual_now;
  const double waits_s = self_s("sched.exclusive") + self_s("sched.await");

  std::vector<Metric> m = {
      {"compile.prepare_hit_us",
       p.calls.prepare_hits
           ? p.calls.prepare_hit_ns / 1e3 / p.calls.prepare_hits
           : 0.0,
       "us"},
      {"compile.prepare_miss_us", cold_us, "us"},
      {"compile.busy_share", self_s("compile.prepare") / root_s, "share"},
      {"plan_cache.hit_ratio", (c1.hits - c0.hits) / lookups, "ratio"},
      {"plan_cache.invalidated", (c1.invalidated - c0.invalidated) * 1e3 / q,
       "1/kq"},
      {"plan_cache.epoch_bumps", (c1.epoch_bumps - c0.epoch_bumps) * 1e3 / q,
       "1/kq"},
      {"route.us", self_s("route") * 1e6 / count("route"), "us"},
      {"route.busy_share", self_s("route") / root_s, "share"},
      {"route.candidates_per_query",
       static_cast<double>(p.calls.candidates) / p.calls.routed, "count"},
      {"exec.step_self_us_per_query", exec_self_us, "us"},
      {"exec.events_per_query",
       static_cast<double>(p.after.events - p.before.events) / q, "count"},
      {"engine.fragment_us", engine.fragment_us, "us"},
      {"engine.work_units_per_query", engine.work_units_per_query, "count"},
      {"engine.rows_out_per_fragment", engine.rows_out_per_fragment, "count"},
      {"engine.share_est", engine.seconds_per_query * q / p.wall_s, "share"},
      {"server.utilization",
       vt > 0 ? (p.after.server_busy_s - p.before.server_busy_s) /
                    (p.after.server_slots * vt)
              : 0.0,
       "share"},
      {"server.useful_fragment_ratio",
       static_cast<double>(p.fragments_used) /
           static_cast<double>(p.after.fragments_submitted -
                               p.before.fragments_submitted),
       "ratio"},
      {"sched.prepare_exclusion_wait_us",
       p.calls.exclusion_wait_ns / 1e3 /
           (p.calls.prepare_hits + p.calls.prepare_misses),
       "us"},
      {"sched.execute_call_us",
       p.calls.execute_call_ns / 1e3 / p.calls.execute_calls, "us"},
      {"sched.completion_wait_us", p.completion_wait_us, "us"},
      {"sched.worker_busy_share", 1.0 - waits_s / root_s, "share"},
      {"setup.stats_refresh_s", refresh_s, "s"},
      {"obs.traces_retained", static_cast<double>(traces_retained), "count"},
      {"obs.rss_growth_kb_per_query", base.rss_growth_kb_per_query, "kB"},
      {"unattributed_share", 1.0 - attributed_s / root_s, "share"},
      {"trace.overhead_share", 1.0 - p.qps / base.qps, "share"},
  };

  // Traced-run artifact: the layer table and the span dump.
  const std::string stem = o.out_dir + "/" + def.name + "-seed" +
                           std::to_string(o.seed);
  {
    std::ofstream table(stem + "-layers.txt");
    table << Metadata(o, def) << "\n\n";
    char line[256];
    std::snprintf(line, sizeof(line),
                  "untraced host_qps %.1f, traced host_qps %.1f, tracing "
                  "overhead %.1f%%; %zu queries traced over %.3f s\n\n",
                  base.qps, p.qps, 100.0 * (1.0 - p.qps / base.qps),
                  p.completed, p.wall_s);
    table << line;
    std::snprintf(line, sizeof(line), "%-22s %10s %12s %12s %8s %12s\n",
                  "span", "count", "total_ms", "self_ms", "share",
                  "self_us/q");
    table << line;
    for (const auto& [name, t] : totals) {
      std::snprintf(line, sizeof(line),
                    "%-22s %10llu %12.3f %12.3f %7.2f%% %12.3f\n",
                    name.c_str(), static_cast<unsigned long long>(t.count),
                    t.total_ns / 1e6, t.self_ns / 1e6,
                    100.0 * t.self_ns / 1e9 / root_s, t.self_ns / 1e3 / q);
      table << line;
    }
    std::snprintf(line, sizeof(line),
                  "(%s self time is the unattributed remainder)\n\n", root);
    table << line;
    for (const Metric& metric : m) {
      std::snprintf(line, sizeof(line), "%-34s %16.6f %s\n",
                    metric.name.c_str(), metric.value, metric.unit.c_str());
      table << line;
    }
    std::ofstream dump(stem + "-spans.json");
    dump << "{\"meta\": " << Metadata(o, def) << ",\n\"spans_total\": "
         << spans.size() << ",\n\"spans\": " << spans.ToJson(50'000) << "}\n";
    std::fprintf(stderr, "traced-run artifacts: %s-layers.txt, %s-spans.json\n",
                 stem.c_str(), stem.c_str());
  }

  PrintResult(correct, base.attempted + p.attempted,
              base.failed + base_check.mismatched_queries + p.failed +
                  check.mismatched_queries,
              m);
  return 0;
}

/// Fixes glibc's malloc thresholds for the benchmark process. By default
/// glibc starts mapping blocks above 128 KiB with mmap and raises that
/// threshold, and the heap trim threshold with it, only when such a block
/// is freed; arenas also give memory back as their tops shrink. When that
/// happens depends on the order of allocations, so identical runs land in
/// different regimes: on serving_w3, 0.6M to 3.8M minor page faults per
/// 1040 queries and 11 to 14 CPU-ms per query. With fixed thresholds every
/// run allocates the same way.
void FixAllocatorThresholds() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);   // glibc's largest dynamic value
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadDef& d : Defs()) names.push_back(d.name);
  return names;
}

int RunWorkload(const RunOptions& options) {
  FixAllocatorThresholds();
  AdhocShapePool();  // built once, outside every timed setup
  for (const WorkloadDef& def : Defs()) {
    if (options.workload != def.name) continue;
    std::printf("{\"meta\": %s}\n", Metadata(options, def).c_str());
    return options.trace ? RunTraced(options, def) : RunUntraced(options, def);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
  return 2;
}

}  // namespace perfbench
