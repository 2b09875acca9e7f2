// Host-time benchmark driver: loads generated data into a Database and
// runs the paper's queries back to back, one client in a closed loop.
//
//   perfbench_driver --workload tpch-ysmart --seed 0 --seconds 10 --trace 0
//
// --trace 0 times Database::run end to end (observers detached) and
// reports the end-to-end metrics. --trace 1 runs a shorter untimed-style
// loop the same way, then a separate traced pass that drives each layer
// through its public entry point (plan_query, translate,
// build_common_job, Engine::run with wrapped mappers/reducers) and
// reports the per-layer ledger. Every query is checked by the
// correctness gate; the last stdout line is one JSON report that
// perfbench/run.py turns into the benchmark result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/database.h"
#include "cmf/common_job.h"
#include "common/json.h"
#include "common/prof_counters.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/clicks_gen.h"
#include "data/queries.h"
#include "data/tpch_gen.h"
#include "ledger.h"
#include "plan/builder.h"
#include "translator/ysmart_translator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ysmart;
using perfbench::Span;

constexpr double kGB = 1024.0 * 1024.0 * 1024.0;
constexpr int kSetupReps = 5;
/// Hard stop for the measuring loops together (each gets half in trace
/// mode), so a run ends inside its time limit even when the p90 sample
/// count cannot be reached.
constexpr double kMaxLoopSeconds = 120;

// --------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::stoull(next());
    else if (a == "--seconds") o.seconds = std::stod(next());
    else if (a == "--trace") o.trace = std::stoi(next()) != 0;
    else if (a == "--spans") o.spans_path = next();
    else throw std::runtime_error("unknown argument " + a);
  }
  if (o.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  return o;
}

// ------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  bool clicks = false;
  TranslatorProfile profile;
  std::vector<const queries::PaperQuery*> queries;
};

Workload workload_by_name(const std::string& name) {
  if (name == "tpch-ysmart")
    return {name, false, TranslatorProfile::ysmart(),
            {&queries::q17(), &queries::q18(), &queries::q21()}};
  if (name == "tpch-hive")
    return {name, false, TranslatorProfile::hive(),
            {&queries::q17(), &queries::q18(), &queries::q21()}};
  if (name == "clicks-agg")
    return {name, true, TranslatorProfile::ysmart(), {&queries::qagg()}};
  throw std::runtime_error("unknown workload " + name);
}

int expected_jobs(const Workload& w, const queries::PaperQuery& q) {
  return w.profile.correlation_aware ? q.ysmart_jobs : q.one_op_jobs;
}

using Tables = std::vector<std::pair<std::string, std::shared_ptr<const Table>>>;

/// The workload's tables, generated from `seed`, and the cluster they run
/// on: fig10's small_local preset scaled so the tables model 10 GB of
/// TPC-H or 20 GB of clicks. Seed 0 keeps the generators' default seeds.
std::pair<Tables, ClusterConfig> generate(const Workload& w, std::uint64_t seed) {
  Tables t;
  if (w.clicks) {
    ClicksConfig cfg;
    cfg.seed += seed;
    cfg.users = 40000;  // ~10x the default: ~1.6M rows
    t.emplace_back("clicks", generate_clicks(cfg));
  } else {
    // A quarter of the default TpchConfig (7.5k orders, ~60k lineitems):
    // on a shared host the default's larger working set made run-to-run
    // timings drift about twice as much.
    TpchConfig cfg;
    cfg.seed += seed;
    cfg.orders /= 4;
    cfg.parts /= 4;
    cfg.customers /= 4;
    TpchData d = generate_tpch(cfg);
    t = {{"lineitem", d.lineitem}, {"orders", d.orders}, {"part", d.part},
         {"customer", d.customer}, {"supplier", d.supplier},
         {"nation", d.nation}};
  }
  std::uint64_t bytes = 0;
  for (const auto& [_, table] : t) bytes += table->byte_size();
  const double modeled_gb = w.clicks ? 20 : 10;
  return {std::move(t),
          ClusterConfig::small_local(modeled_gb * kGB / static_cast<double>(bytes))};
}

// ---------------------------------------------------------------- clocks

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms_since(std::uint64_t t0_ns) {
  return static_cast<double>(prof::wall_ns() - t0_ns) / 1e6;
}

double rusage_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -------------------------------------------------------- correctness gate

/// Every simulated quantity of a query run, as canonical JSON (doubles
/// round-trip exactly). Two runs with equal strings simulated the same.
std::string sim_json(const QueryMetrics& m) {
  JsonWriter w;
  w.begin_object().kv("wall_time_s", m.wall_time_s).key("jobs").begin_array();
  auto phase = [&](const char* k, const PhaseMetrics& p) {
    w.key(k).begin_object()
        .kv("tasks", p.tasks).kv("input_records", p.input_records)
        .kv("input_bytes", p.input_bytes).kv("output_records", p.output_records)
        .kv("output_bytes", p.output_bytes).end_object();
  };
  for (const auto& j : m.jobs) {
    w.begin_object().kv("name", std::string_view(j.job_name));
    phase("map", j.map);
    phase("reduce", j.reduce);
    w.kv("shuffle_bytes_raw", j.shuffle_bytes_raw)
        .kv("shuffle_bytes_wire", j.shuffle_bytes_wire)
        .kv("remote_read_bytes", j.remote_read_bytes)
        .kv("dfs_write_bytes", j.dfs_write_bytes)
        .kv("sched_delay_s", j.sched_delay_s)
        .kv("map_time_s", j.map_time_s)
        .kv("reduce_time_s", j.reduce_time_s)
        .kv("failed", j.failed)
        .end_object();
  }
  w.end_array().end_object();
  return w.take();
}

/// FNV-1a over the wire encoding of every row, in order.
std::uint64_t digest(const Table& t) {
  std::uint64_t h = 1469598103934665603ull;
  std::string buf;
  for (const auto& row : t.rows()) {
    buf.clear();
    for (const auto& v : row) v.encode(buf);
    buf.push_back('\n');
    for (unsigned char c : buf) h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

/// Per distinct query: the first run in the process fixes the reference
/// sim metrics and result digest; its rows are checked once against the
/// single-node reference executor. Every later run must match exactly.
class Gate {
 public:
  explicit Gate(const Workload& w) : w_(w), refs_(w.queries.size()) {}

  /// True when `r` (a run of query `qi`) passes every check.
  bool check(std::size_t qi, const QueryRunResult& r) {
    Ref& ref = refs_[qi];
    const queries::PaperQuery& q = *w_.queries[qi];
    std::string why;
    if (r.metrics.failed() || !r.result)
      why = "query failed: " + r.metrics.fail_reason();
    else if (r.metrics.job_count() != expected_jobs(w_, q))
      why = "job count " + std::to_string(r.metrics.job_count()) +
            " != " + std::to_string(expected_jobs(w_, q));
    if (why.empty()) {
      const std::string sim = sim_json(r.metrics);
      const std::uint64_t d = digest(*r.result);
      if (!ref.result) {
        ref.result = r.result;
        ref.sim = sim;
        ref.digest = d;
      } else if (sim != ref.sim) {
        why = "simulated metrics differ from the first run";
      } else if (d != ref.digest) {
        why = "result rows differ from the first run";
      }
    }
    if (why.empty()) return true;
    fail(qi, why);
    return false;
  }

  /// Rows of the first run against Database::run_reference.
  void verify(std::size_t qi, Database& db) {
    Ref& ref = refs_[qi];
    const Table expected = db.run_reference(w_.queries[qi]->sql);
    if (!ref.result) fail(qi, "no successful run to verify");
    else if (!same_rows_unordered(expected, *ref.result))
      fail(qi, "rows differ from run_reference");
  }

  bool ok(std::size_t qi) const { return refs_[qi].why.empty(); }
  const std::string& why(std::size_t qi) const { return refs_[qi].why; }
  const std::string& sim(std::size_t qi) const { return refs_[qi].sim; }

 private:
  struct Ref {
    std::shared_ptr<const Table> result;
    std::string sim;
    std::uint64_t digest = 0;
    std::string why;  // first failure seen, empty while the query passes
  };
  void fail(std::size_t qi, const std::string& why) {
    if (refs_[qi].why.empty()) {
      refs_[qi].why = why;
      std::fprintf(stderr, "perfbench: %s %s: %s\n", w_.name.c_str(),
                   w_.queries[qi]->id.c_str(), why.c_str());
    }
  }

  const Workload& w_;
  std::vector<Ref> refs_;
};

// ------------------------------------------------------------------ setup

struct Loaded {
  std::unique_ptr<Database> db;
  double setup_s = 0;
};

/// Data generation + create_table + one warm-up run of each distinct
/// query (the warm-up runs also feed the gate).
Loaded set_up(const Workload& w, std::uint64_t seed, ThreadPool& pool, Gate& gate) {
  Loaded l;
  const double t0 = now_s();
  auto [tables, cluster] = generate(w, seed);
  l.db = std::make_unique<Database>(cluster, &pool);
  l.db->set_observer(nullptr);
  for (const auto& [name, table] : tables) l.db->create_table(name, table);
  for (std::size_t qi = 0; qi < w.queries.size(); ++qi)
    gate.check(qi, l.db->run(w.queries[qi]->sql, w.profile));
  l.setup_s = now_s() - t0;
  return l;
}

// ------------------------------------------------------------------ loops

/// Query indices in rounds: each round runs every distinct query once, in
/// an order shuffled by the workload seed, so the mix stays balanced.
class QueryOrder {
 public:
  QueryOrder(std::size_t n, std::uint64_t seed) : n_(n), rng_(seed ^ 0x5eedf00dull) {}
  std::vector<std::size_t> next_round() {
    std::vector<std::size_t> r(n_);
    for (std::size_t i = 0; i < n_; ++i) r[i] = i;
    for (std::size_t i = n_; i > 1; --i)
      std::swap(r[i - 1], r[static_cast<std::size_t>(rng_.uniform(0, static_cast<std::int64_t>(i) - 1))]);
    return r;
  }

 private:
  std::size_t n_;
  Rng rng_;
};

struct Tally {
  std::vector<std::uint64_t> attempted_by_query;
  std::vector<std::uint64_t> failed_by_query;
  explicit Tally(std::size_t n) : attempted_by_query(n), failed_by_query(n) {}
  void add(std::size_t qi, bool ok) {
    ++attempted_by_query[qi];
    if (!ok) ++failed_by_query[qi];
  }
};

struct TimedLoop {
  std::vector<double> query_ms;
  /// Per round: queries ÷ wall seconds, and process CPU ms ÷ queries.
  std::vector<double> round_qps;
  std::vector<double> round_cpu_ms;
};

/// Closed loop over Database::run until `seconds` have passed and the p90
/// has ten samples beyond it (`min_samples` overrides that rule).
TimedLoop run_timed(const Workload& w, Database& db, QueryOrder& order,
                    Gate& gate, Tally& tally, double seconds,
                    std::size_t min_samples, double max_seconds) {
  TimedLoop t;
  const double t0 = now_s();
  for (;;) {
    const std::vector<std::size_t> round = order.next_round();
    const double r_cpu0 = rusage_cpu_ms();
    const double r_t0 = now_s();
    for (std::size_t qi : round) {
      const std::uint64_t q0 = prof::wall_ns();
      QueryRunResult r = db.run(w.queries[qi]->sql, w.profile);
      t.query_ms.push_back(ms_since(q0));
      tally.add(qi, gate.check(qi, r));
    }
    const double n = static_cast<double>(round.size());
    t.round_qps.push_back(n / (now_s() - r_t0));
    t.round_cpu_ms.push_back((rusage_cpu_ms() - r_cpu0) / n);
    const double elapsed = now_s() - t0;
    if (elapsed >= max_seconds) break;
    if (elapsed >= seconds && t.query_ms.size() >= min_samples) break;
  }
  return t;
}

/// One traced query's layer values (sums over its jobs).
struct LayerSample {
  double plan_ms = 0, translate_ms = 0, jobs = 0, build_ms = 0;
  double engine_wall_ms = 0, engine_cpu_ms = 0;
  double rows_in = 0, shuffle_bytes = 0, dfs_write_bytes = 0;
  perfbench::MapTotals map;
  perfbench::ReduceTotals reduce;
  double query_ms = 0, query_self_ms = 0, refdb_ms = 0;

  LayerSample& operator+=(const LayerSample& o) {
    plan_ms += o.plan_ms;
    translate_ms += o.translate_ms;
    jobs += o.jobs;
    build_ms += o.build_ms;
    engine_wall_ms += o.engine_wall_ms;
    engine_cpu_ms += o.engine_cpu_ms;
    rows_in += o.rows_in;
    shuffle_bytes += o.shuffle_bytes;
    dfs_write_bytes += o.dfs_write_bytes;
    map += o.map;
    reduce += o.reduce;
    query_ms += o.query_ms;
    query_self_ms += o.query_self_ms;
    refdb_ms += o.refdb_ms;
    return *this;
  }
};

/// Records spans into `spans` and returns the index of the opened one.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::vector<Span>& spans) : spans_(spans) {}
  int open(int query, const char* layer, int parent) {
    spans_.push_back(Span{query, layer, prof::wall_ns(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int idx) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ns = prof::wall_ns();
    return static_cast<double>(s.duration_ns()) / 1e6;
  }

 private:
  std::vector<Span>& spans_;
};

/// run_translated's serial path, driven layer by layer from public calls:
/// plan_query, translate, then per job build_common_job + Engine::run on
/// wrapped task factories, then removal of the scratch outputs.
QueryRunResult run_traced(const Workload& w, Database& db, std::size_t qi,
                          int query_id, SpanRecorder& rec, LayerSample& ls) {
  const std::string& sql = w.queries[qi]->sql;
  const int root = rec.open(query_id, "query", -1);

  int s = rec.open(query_id, "plan", root);
  PlanPtr plan = plan_query(sql, db.catalog());
  ls.plan_ms = rec.close(s);

  s = rec.open(query_id, "translate", root);
  const std::string scratch = "/perfbench/" + w.profile.name + "/q" +
                              std::to_string(query_id);
  TranslatedQuery tq = translate(plan, w.profile, scratch, &db.stats());
  ls.translate_ms = rec.close(s);
  ls.jobs = static_cast<double>(tq.jobs.size());

  QueryRunResult out;
  const std::string result_path = tq.result_path();
  std::set<std::string> outputs;
  for (const auto& job : tq.jobs) {
    for (const auto& in : job.input_files)
      if (!db.dfs().exists(in.path))
        throw std::runtime_error("traced job " + job.name + " misses input " + in.path);
    const int js = rec.open(query_id, "job", root);

    s = rec.open(query_id, "cmf.build", js);
    MRJobSpec spec = build_common_job(job, w.profile, db.dfs());
    ls.build_ms += rec.close(s);

    perfbench::JobLedger ledger;
    perfbench::wrap_tasks(spec, ledger);
    s = rec.open(query_id, "mr.engine", js);
    const std::uint64_t cpu0 = prof::process_cpu_ns();
    JobMetrics m = db.engine().run(spec);
    ls.engine_cpu_ms += static_cast<double>(prof::process_cpu_ns() - cpu0) / 1e6;
    ls.engine_wall_ms += rec.close(s);
    rec.close(js);

    ls.rows_in += static_cast<double>(m.map.input_records);
    ls.shuffle_bytes += static_cast<double>(m.shuffle_bytes_raw);
    ls.dfs_write_bytes += static_cast<double>(m.dfs_write_bytes);
    ls.map += ledger.map;
    ls.reduce += ledger.reduce;

    out.metrics.wall_time_s += m.total_time_s();  // serial: one job per wave
    out.metrics.jobs.push_back(std::move(m));
    for (const auto& o : job.outputs) outputs.insert(o.path);
  }
  if (!out.metrics.failed()) out.result = db.dfs().file(result_path).table;
  for (const auto& p : outputs)
    if (db.dfs().exists(p)) db.dfs().remove(p);
  ls.query_ms = rec.close(root);
  return out;
}

// ---------------------------------------------------------------- report

struct Result {
  std::map<std::string, std::pair<double, const char*>> metrics;  // value, unit
  void put(const std::string& name, double v, const char* unit) {
    metrics[name] = {std::isfinite(v) ? v : 0.0, unit};
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer metrics: per-query means over each traced round (so exact
/// counts cover every query of the workload), then the median over rounds.
void put_layers(Result& res, const std::vector<LayerSample>& rounds,
                std::size_t queries_per_round) {
  std::map<std::string, std::pair<std::vector<double>, const char*>> cols;
  auto col = [&](const char* name, const char* unit, double v) {
    auto& c = cols[name];
    c.first.push_back(v);
    c.second = unit;
  };
  for (const LayerSample& r : rounds) {
    const double n = static_cast<double>(queries_per_round);
    const double map_ms = static_cast<double>(r.map.calls.cpu_ns) / 1e6;
    const double red_ms = static_cast<double>(r.reduce.calls.cpu_ns) / 1e6;
    const double pairs = static_cast<double>(r.map.pairs);
    const double groups = static_cast<double>(r.reduce.groups);
    const double values = static_cast<double>(r.reduce.values);
    col("plan.ms", "ms", r.plan_ms / n);
    col("translator.ms", "ms", r.translate_ms / n);
    col("translator.jobs", "count", r.jobs / n);
    col("cmf.build_ms", "ms", r.build_ms / n);
    col("cmf.map.cpu_ms", "ms", map_ms / n);
    col("cmf.map.rows_in", "count", r.rows_in / n);
    col("cmf.map.pairs", "count", pairs / n);
    col("cmf.map.pairs_per_row", "ratio", ratio(pairs, r.rows_in));
    col("cmf.map.allocs_per_pair", "ratio",
        ratio(static_cast<double>(r.map.calls.allocs), pairs));
    col("cmf.reduce.cpu_ms", "ms", red_ms / n);
    col("cmf.reduce.groups", "count", groups / n);
    col("cmf.reduce.values_per_group", "ratio", ratio(values, groups));
    col("cmf.reduce.allocs_per_value", "ratio",
        ratio(static_cast<double>(r.reduce.calls.allocs), values));
    col("mr.engine.wall_ms", "ms", r.engine_wall_ms / n);
    col("mr.engine.self_cpu_ms", "ms", (r.engine_cpu_ms - map_ms - red_ms) / n);
    col("mr.engine.parallelism", "ratio", ratio(r.engine_cpu_ms, r.engine_wall_ms));
    col("mr.shuffle_bytes", "bytes", r.shuffle_bytes / n);
    col("storage.dfs_write_bytes", "bytes", r.dfs_write_bytes / n);
    col("exec.rows_evaluated", "count",
        static_cast<double>(r.map.calls.rows_evaluated + r.reduce.calls.rows_evaluated) / n);
    col("exec.cell_compares", "count",
        static_cast<double>(r.map.calls.cell_compares + r.reduce.calls.cell_compares) / n);
    col("exec.agg_updates", "count",
        static_cast<double>(r.map.calls.agg_updates + r.reduce.calls.agg_updates) / n);
    col("refdb.ms", "ms", r.refdb_ms / n);
    col("query.self_ms", "ms", r.query_self_ms / n);
  }
  for (auto& [name, c] : cols) res.put(name, perfbench::median(c.first), c.second);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    JsonWriter w;
    w.begin_object()
        .kv("id", static_cast<std::uint64_t>(i))
        .kv("query", s.query)
        .kv("layer", std::string_view(s.layer))
        .kv("start_ns", s.start_ns)
        .kv("end_ns", s.end_ns)
        .kv("parent", s.parent)
        .kv("self_ns", perfbench::self_ns(spans, i))
        .end_object();
    std::fprintf(f, "%s\n", w.str().c_str());
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int run(const Options& opt) {
  const Workload w = workload_by_name(opt.workload);
  const long nproc_l = sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned nproc = nproc_l > 0 ? static_cast<unsigned>(nproc_l) : 1;
  // One pool worker: with the calling thread (which joins every
  // parallel_for) a query runs on two threads, so on a shared host another
  // busy process takes a spare core instead of stalling one of the query's.
  // With 4 cores and two busy processes beside it, the p50 moved 2% at
  // one worker and 30% at two.
  ThreadPool pool(1);

  Gate gate(w);
  std::vector<double> setup_s;
  Loaded loaded;
  for (int i = 0; i < kSetupReps; ++i) {
    loaded = Loaded{};  // free the previous copy before generating again
    loaded = set_up(w, opt.seed, pool, gate);
    setup_s.push_back(loaded.setup_s);
  }
  Database& db = *loaded.db;
  for (std::size_t qi = 0; qi < w.queries.size(); ++qi) gate.verify(qi, db);

  Tally tally(w.queries.size());
  QueryOrder order(w.queries.size(), opt.seed);
  Result res;
  // The untraced loop always runs: in trace mode it is the baseline of
  // the tracing-overhead ratio, on half the time.
  const double loop_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::size_t min_samples =
      opt.trace ? 3 * w.queries.size() : 100;  // 100: p90 keeps 10 beyond it
  const double max_loop_s = opt.trace ? kMaxLoopSeconds / 2 : kMaxLoopSeconds;
  TimedLoop timed =
      run_timed(w, db, order, gate, tally, loop_s, min_samples, max_loop_s);
  std::vector<double> sorted = timed.query_ms;
  std::sort(sorted.begin(), sorted.end());
  const double p50 = perfbench::percentile(sorted, 50);
  const int top = perfbench::highest_reportable_percentile(sorted.size());
  if (!opt.trace) {
    res.put("query_ms_p50", p50, "ms");
    res.put("query_ms_p90", perfbench::percentile(sorted, 90), "ms");
    res.put("queries_per_s", perfbench::median(timed.round_qps), "1/s");
    res.put("cpu_ms_per_query", perfbench::median(timed.round_cpu_ms), "ms");
    res.put("peak_rss_mb", peak_rss_mb(), "MB");
    res.put("setup_s", perfbench::median(setup_s), "s");
  }

  std::vector<Span> spans;
  if (opt.trace) {
    SpanRecorder rec(spans);
    prof::acquire_enabled();
    std::vector<LayerSample> rounds;
    std::vector<double> traced_ms;
    const double t0 = now_s();
    int query_id = 0;
    do {
      LayerSample round;
      for (std::size_t qi : order.next_round()) {
        LayerSample ls;
        const std::size_t first_span = spans.size();
        QueryRunResult r = run_traced(w, db, qi, query_id, rec, ls);
        ls.query_self_ms = static_cast<double>(perfbench::self_ns(spans, first_span)) / 1e6;
        const int rs = rec.open(query_id, "refdb", -1);
        db.run_reference(w.queries[qi]->sql);
        ls.refdb_ms = rec.close(rs);
        ++query_id;
        traced_ms.push_back(ls.query_ms);
        tally.add(qi, gate.check(qi, r));
        round += ls;
      }
      rounds.push_back(round);
    } while ((now_s() - t0 < opt.seconds / 2 || rounds.size() < 3) &&
             now_s() - t0 < max_loop_s);
    prof::release_enabled();
    put_layers(res, rounds, w.queries.size());
    const double traced_p50 = perfbench::median(traced_ms);
    res.put("trace.query_ms_p50", traced_p50, "ms");
    res.put("trace.overhead_ratio", ratio(traced_p50, p50), "ratio");
    if (!opt.spans_path.empty()) write_spans(opt.spans_path, spans);
  }

  // A query that failed verification fails every one of its runs.
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t qi = 0; qi < w.queries.size(); ++qi) {
    attempted += tally.attempted_by_query[qi];
    failed += gate.ok(qi) ? tally.failed_by_query[qi] : tally.attempted_by_query[qi];
  }

  JsonWriter j;
  j.begin_object()
      .kv("workload", std::string_view(w.name))
      .kv("seed", opt.seed)
      .kv("trace", opt.trace)
      .kv("attempted", attempted)
      .kv("failed", failed)
      .kv("samples", static_cast<std::uint64_t>(sorted.size()))
      .kv("highest_percentile", top);
  j.key("fingerprint").begin_object()
      .kv("nproc", static_cast<std::uint64_t>(nproc))
      .kv("pool_workers", static_cast<std::uint64_t>(pool.size()))
      .kv("compiler", std::string_view(compiler()))
      .kv("build_type", PERFBENCH_BUILD_TYPE)
      .end_object();
  j.key("queries").begin_array();
  for (std::size_t qi = 0; qi < w.queries.size(); ++qi) {
    j.begin_object()
        .kv("id", std::string_view(w.queries[qi]->id))
        .kv("attempted", tally.attempted_by_query[qi])
        .kv("ok", gate.ok(qi))
        .kv("why", std::string_view(gate.why(qi)))
        .key("sim").raw(gate.sim(qi).empty() ? "null" : gate.sim(qi))
        .end_object();
  }
  j.end_array();
  j.key("metrics").begin_object();
  for (const auto& [name, vu] : res.metrics)
    j.key(name).begin_object().kv("value", vu.first).kv("unit", vu.second).end_object();
  j.end_object().end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
