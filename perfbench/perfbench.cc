// End-to-end benchmark of batch-dynamic connectivity, one workload per
// process.
//
//   perfbench --workload <name> --seed <n> --seconds <t> --trace <0|1>
//             [--readers <k>] [--trace-out <file>]
//
// Load model: a closed loop.  One writer submits the next batch only after
// the previous apply call has returned and its query snapshot is published
// (the paper's phase model); in serve-mixed, reader threads also query the
// published snapshot in closed loops.  The stream is generated from --seed
// before any clock starts; the sketch seed is a fixed constant.  The amount
// of work is fixed by (workload, --seconds) — never by the clock — so every
// count the run reports is a pure function of (workload, seed, seconds).
//
// After every batch, outside the clock, the published snapshot is checked
// against an AdjGraph oracle (graph/reference).
//
// With --trace 1 the run also records spans around each public front-end
// call (parent: the batch span) and, outside the clock, replays each
// batch's inputs through twin layer objects — Cluster::route_batch,
// Simulator::probe/execute, VertexSketches::update_edges and
// EulerTourForest::batch_cut/batch_link — under their own spans.  Replay
// times estimate what each layer costs on identical inputs; they never
// touch the measured structure, so traced and untraced runs report the
// same counts.
//
// Human-readable lines print every metric with its unit; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics, counts,
// env}, where counts names the metrics that must repeat exactly for a seed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/dynamic_connectivity.h"
#include "core/streaming_connectivity.h"
#include "euler/tour_forest.h"
#include "graph/adjacency.h"
#include "graph/reference.h"
#include "graph/streams.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "sketch/graphsketch.h"

namespace {

using namespace streammpc;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Sketch randomness is a fixed constant: only the stream follows --seed.
constexpr std::uint64_t kSketchSeed = 0x5eedULL;
// Setup (construction + prefill + first snapshot) is repeated this many
// times per run and reported as the median.
constexpr int kSetupReps = 5;
// A run needs this many timed batches so that >= 10 latency samples lie
// beyond p90.
constexpr std::size_t kMinBatches = 100;

// ---------------------------------------------------------------------------
// Workloads.

enum class FrontEnd { kDynamic, kStreaming };

struct Workload {
  const char* name;
  FrontEnd front_end;
  VertexId n;
  std::size_t batch_size;
  double delete_fraction;
  // serve-mixed: batches are insert-only except every k-th, which carries
  // deletes (half its updates); 0 = every batch follows delete_fraction.
  std::size_t delete_every;
  mpc::ExecMode mode;
  mpc::SplitPolicy split;
  bool async_ingest;
  unsigned readers;
  // Timed batches per requested second, sized on a 4-core x86 host so a
  // run takes about --seconds of timed work.
  double batches_per_second;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const Workload kWorkloads[] = {
    {"insert-bulk", FrontEnd::kDynamic, VertexId{1} << 15, 2048, 0.0, 0,
     mpc::ExecMode::kSimulated, mpc::SplitPolicy::kProportional, false, 0,
     25.0},
    {"delete-churn", FrontEnd::kDynamic, VertexId{1} << 14, 1024, 0.5, 0,
     mpc::ExecMode::kRouted, mpc::SplitPolicy::kNone, false, 0, 8.5},
    {"serve-mixed", FrontEnd::kDynamic, VertexId{1} << 15, 256, 0.0, 8,
     mpc::ExecMode::kRouted, mpc::SplitPolicy::kNone, true, 2, 32.0},
    {"stream-seq", FrontEnd::kStreaming, VertexId{1} << 12, 256, 0.3, 0,
     mpc::ExecMode::kRouted, mpc::SplitPolicy::kNone, false, 0, 16.0},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

struct Stream {
  std::vector<Edge> prefill;  // the initial 2n edges
  std::vector<Batch> timed;
  double generate_s = 0;
  std::uint64_t digest = 0;  // fingerprint of prefill + timed batches
};

std::uint64_t stream_digest(const Stream& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; };
  for (const Edge& e : s.prefill) mix((std::uint64_t{e.u} << 32) | e.v);
  for (const Batch& b : s.timed) {
    mix(b.size());
    for (const Update& u : b)
      mix((std::uint64_t{u.e.u} << 33) | (std::uint64_t{u.e.v} << 1) |
          (u.type == UpdateType::kDelete ? 1 : 0));
  }
  return h;
}

// gen::churn_stream emits the prefill as insert-only warm-up batches, then
// the churn batches.  For serve-mixed the churn is insert-only and every
// delete_every-th batch trades its second half for deletions of edges live
// before it; churn_stream never redraws an edge it has issued, so the
// result stays a valid stream.
Stream make_stream(const Workload& w, std::uint64_t seed,
                   std::size_t batches) {
  const auto t0 = Clock::now();
  gen::ChurnOptions opt;
  opt.n = w.n;
  opt.initial_edges = 2 * static_cast<std::size_t>(w.n);
  opt.num_batches = batches;
  opt.batch_size = w.batch_size;
  opt.delete_fraction = w.delete_fraction;
  Rng rng(seed);
  std::vector<Batch> all = gen::churn_stream(opt, rng);
  const std::size_t warmup = all.size() - batches;

  Stream s;
  for (std::size_t i = 0; i < warmup; ++i)
    for (const Update& u : all[i]) s.prefill.push_back(u.e);
  s.timed.assign(std::make_move_iterator(all.begin() + warmup),
                 std::make_move_iterator(all.end()));

  if (w.delete_every > 0) {
    Rng pick = rng.fork();
    std::vector<Edge> live = s.prefill;
    for (std::size_t b = 0; b < s.timed.size(); ++b) {
      Batch& batch = s.timed[b];
      if ((b + 1) % w.delete_every == 0) {
        const std::size_t keep = batch.size() / 2;
        for (std::size_t i = keep; i < batch.size(); ++i) {
          const std::size_t j = pick.below(live.size());
          batch[i] = Update{UpdateType::kDelete, live[j], 1};
          live[j] = live.back();
          live.pop_back();
        }
        for (std::size_t i = 0; i < keep; ++i) live.push_back(batch[i].e);
      } else {
        for (const Update& u : batch) live.push_back(u.e);
      }
    }
  }
  s.generate_s = seconds_between(t0, Clock::now());
  s.digest = stream_digest(s);
  return s;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the run ends.  Every
// span belongs to one batch; the batch span (the timed apply + publish) is
// the parent of the front-end call spans and of that batch's replay spans.

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // Runs f() inside a span; only f() when tracing is off.
  template <typename F>
  void span(const char* name, std::size_t batch, F&& f) {
    if (!enabled_) {
      f();
      return;
    }
    const auto t0 = Clock::now();
    f();
    record(name, batch, t0, Clock::now());
  }

  void record(const char* name, std::size_t batch, Clock::time_point t0,
              Clock::time_point t1) {
    if (!enabled_) return;
    spans_.push_back(Span{name, batch, ns(t0), ns(t1)});
    busy_[name] += seconds_between(t0, t1);
  }

  double busy(const std::string& name) const {
    const auto it = busy_.find(name);
    return it == busy_.end() ? 0.0 : it->second;
  }

  // JSON lines: {"name", "batch", "parent", "start_ns", "end_ns"}, where
  // parent is "batch" for every span except the batch span itself.
  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      const bool root = std::strcmp(s.name, kBatchSpan) == 0;
      out << "{\"name\": \"" << s.name << "\", \"batch\": " << s.batch
          << ", \"parent\": " << (root ? "null" : "\"batch\"")
          << ", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
          << "}\n";
    }
  }

  static constexpr const char* kBatchSpan = "batch";

 private:
  struct Span {
    const char* name;
    std::size_t batch;
    std::int64_t start;
    std::int64_t end;
  };
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<std::string, double> busy_;
};

// ---------------------------------------------------------------------------
// Oracle: the live graph as an AdjGraph, labelled by component_labels.  A
// run of insert-only batches can only merge components, so between
// deletions the labels are kept by a Dsu (graph/reference) fed the inserted
// edges instead of a BFS per batch; any deletion falls back to
// component_labels.

class Oracle {
 public:
  Oracle(VertexId n, const std::vector<Edge>& edges) : graph_(n), dsu_(n) {
    for (const Edge& e : edges) graph_.insert_edge(e.u, e.v);
    reset_from_bfs();
  }

  void apply(const Batch& batch) {
    graph_.apply(batch);  // checks stream validity
    const bool deletes = std::any_of(batch.begin(), batch.end(), [](auto& u) {
      return u.type == UpdateType::kDelete;
    });
    if (deletes) {
      reset_from_bfs();
      return;
    }
    for (const Update& u : batch) dsu_.unite(u.e.u, u.e.v);
    const VertexId n = graph_.n();
    std::vector<VertexId> min_of(n, kNoVertex);
    for (VertexId v = 0; v < n; ++v) {
      VertexId& m = min_of[dsu_.find(v)];
      m = std::min(m, v);
    }
    for (VertexId v = 0; v < n; ++v) labels_[v] = min_of[dsu_.find(v)];
  }

  const AdjGraph& graph() const { return graph_; }
  const std::vector<VertexId>& labels() const { return labels_; }

 private:
  void reset_from_bfs() {
    labels_ = component_labels(graph_);
    dsu_ = Dsu(graph_.n());
    for (VertexId v = 0; v < graph_.n(); ++v) dsu_.unite(v, labels_[v]);
  }

  AdjGraph graph_;
  Dsu dsu_;
  std::vector<VertexId> labels_;
};

struct Verdict {
  bool equal = false;  // partition identical to the oracle's
  bool sound = false;  // every guarantee that holds without sampler luck
  std::int64_t excess = 0;  // structure components - oracle components
  const char* problem = "";  // first unsound property found
};

// `sound` holds when the forest is a forest of live edges whose trees are
// exactly the label classes, labels are min-vertex canonical, and every
// structure component lies inside one oracle component.  A sampler miss
// keeps the answer sound but splits a true component (excess > 0); a
// false merge or a bogus edge is unsound.
Verdict check_snapshot(const Oracle& oracle, const QuerySnapshot& snap) {
  Verdict v;
  const AdjGraph& graph = oracle.graph();
  const VertexId n = graph.n();
  const std::vector<VertexId>& truth = oracle.labels();
  v.equal = snap.labels == truth;
  auto unsound = [&](const char* why) {
    v.problem = why;
    return v;
  };
  if (snap.labels.size() != n) return unsound("label count");
  std::int64_t ours = 0;
  std::int64_t theirs = 0;
  for (VertexId x = 0; x < n; ++x) {
    const VertexId l = snap.labels[x];
    if (l > x || snap.labels[l] != l) return unsound("labels not canonical");
    if (truth[l] != truth[x]) return unsound("false merge");
    ours += l == x;
    theirs += truth[x] == x;
  }
  Dsu dsu(n);
  for (const Edge& e : snap.forest) {
    if (e.u >= n || e.v >= n || !graph.has_edge(e.u, e.v))
      return unsound("forest edge not live");
    if (snap.labels[e.u] != snap.labels[e.v])
      return unsound("forest edge across labels");
    if (!dsu.unite(e.u, e.v)) return unsound("forest cycle");
  }
  if (static_cast<std::int64_t>(dsu.num_sets()) != ours)
    return unsound("forest does not span the label classes");
  v.sound = true;
  v.excess = ours - theirs;
  return v;
}

// ---------------------------------------------------------------------------
// Front ends behind one interface the loop drives.

struct FrontEndStats {
  std::uint64_t tree_deletes = 0;
  std::uint64_t replacements_found = 0;
  std::uint64_t boruvka_levels = 0;
  std::uint64_t max_banks_used = 0;
  std::uint64_t empty_levels = 0;
  std::uint64_t splits = 0;
};

// Library defaults throughout (pools sized by the library), except the
// sketch seed, which is pinned.
GraphSketchConfig sketch_config() {
  GraphSketchConfig sketch;
  sketch.seed = kSketchSeed;
  return sketch;
}

class System {
 public:
  System(const Workload& w, const std::vector<Edge>& prefill)
      : cluster_(cluster_config(w)) {
    const GraphSketchConfig sketch = sketch_config();
    mpc::SchedulerConfig sched;
    sched.policy = w.split;
    sched.grow = mpc::GrowPolicy::kNone;
    if (w.front_end == FrontEnd::kDynamic) {
      ConnectivityConfig cfg;
      cfg.sketch = sketch;
      cfg.exec_mode = w.mode;
      cfg.scheduler = sched;
      cfg.async_ingest = w.async_ingest;
      dyn_ = std::make_unique<DynamicConnectivity>(w.n, cfg, &cluster_);
      dyn_->bootstrap(prefill);
    } else {
      stream_ = std::make_unique<StreamingConnectivity>(
          w.n, sketch, &cluster_, w.mode, sched);
      std::vector<Update> ups;
      ups.reserve(prefill.size());
      for (const Edge& e : prefill)
        ups.push_back(Update{UpdateType::kInsert, e, 1});
      for (std::size_t i = 0; i < ups.size(); i += w.batch_size) {
        const std::size_t end = std::min(ups.size(), i + w.batch_size);
        stream_->apply_stream(
            std::span<const Update>(ups.data() + i, end - i));
      }
    }
    snapshot();
  }

  static mpc::MpcConfig cluster_config(const Workload& w) {
    mpc::MpcConfig c;
    c.n = w.n;
    c.phi = 0.5;
    c.strict = false;
    return c;
  }

  void apply(const Batch& batch) {
    if (dyn_) {
      dyn_->apply_batch(batch);
    } else {
      stream_->apply_stream(batch);
    }
  }
  void flush() {
    if (dyn_) dyn_->flush_ingest();
  }
  QueryCache::SnapshotPtr snapshot() {
    return dyn_ ? dyn_->snapshot() : stream_->snapshot();
  }
  QueryCache::SnapshotPtr published() const {
    return dyn_ ? dyn_->query_cache().snapshot()
                : stream_->query_cache().snapshot();
  }

  mpc::Cluster& cluster() { return cluster_; }
  const VertexSketches& sketches() const {
    return dyn_ ? dyn_->sketches() : stream_->sketches();
  }
  const QueryCache::Stats& cache_stats() const {
    return dyn_ ? dyn_->query_cache().stats() : stream_->query_cache().stats();
  }
  std::uint64_t memory_words() const {
    return dyn_ ? dyn_->memory_words() : stream_->memory_words();
  }
  const mpc::Simulator* simulator() const {
    return dyn_ ? dyn_->simulator() : stream_->simulator();
  }
  const mpc::BatchScheduler* scheduler() const {
    return dyn_ ? dyn_->scheduler() : stream_->scheduler();
  }
  const GutterIngest* gutter() const {
    return dyn_ ? dyn_->gutter() : stream_->gutter();
  }
  FrontEndStats stats() const {
    FrontEndStats s;
    if (dyn_) {
      const auto& d = dyn_->stats();
      s.tree_deletes = d.tree_deletes;
      s.replacements_found = d.replacements_found;
      s.boruvka_levels = d.boruvka_levels;
      s.max_banks_used = d.max_banks_used;
      s.empty_levels = d.empty_levels;
    } else {
      const auto& d = stream_->stats();
      s.tree_deletes = d.tree_deletes;
      s.replacements_found = d.replacements_found;
      s.splits = d.splits;
    }
    return s;
  }

 private:
  mpc::Cluster cluster_;
  std::unique_ptr<DynamicConnectivity> dyn_;
  std::unique_ptr<StreamingConnectivity> stream_;
};

// ---------------------------------------------------------------------------
// Replay: twin layer objects fed each batch's inputs under their own spans.

class Replay {
 public:
  // One twin sketch set serves both the simulated and the flat replay:
  // cell work does not depend on cell contents, so applying every batch
  // twice leaves the per-call cost unchanged and halves the twin memory.
  Replay(const Workload& w, const std::vector<Edge>& prefill,
         const std::vector<Edge>& forest)
      : w_(w),
        cluster_(System::cluster_config(w)),
        sketches_(w.n, sketch_config()),
        forest_(w.n) {
    std::vector<EdgeDelta> deltas;
    for (const Edge& e : prefill) deltas.push_back(EdgeDelta{e, +1});
    sketches_.update_edges(std::span<const EdgeDelta>(deltas));
    if (w.mode == mpc::ExecMode::kSimulated)
      simulator_ = std::make_unique<mpc::Simulator>(cluster_);
    forest_.batch_link(forest);
  }

  // Sketch-side layers, fed what the front end delivers: the normalized
  // inserts then deletes under DynamicConnectivity; under
  // StreamingConnectivity the whole segment as one delivery (the real path
  // splits it at every tree-edge delete).
  void sketch_layers(const Batch& batch, std::size_t parent, Tracer& t) {
    std::vector<Update> first;
    std::vector<Update> second;
    if (w_.front_end == FrontEnd::kDynamic) {
      std::tie(first, second) = normalize_batch(batch);
    } else {
      first = batch;
    }
    for (const auto* part : {&first, &second}) {
      if (part->empty()) continue;
      deltas_.clear();
      for (const Update& u : *part)
        deltas_.push_back(
            EdgeDelta{u.e, u.type == UpdateType::kInsert ? +1 : -1});
      t.span("mpc.route", parent, [&] {
        cluster_.route_batch(deltas_, w_.n, routed_);
      });
      if (simulator_) {
        t.span("mpc.probe", parent,
               [&] { simulator_->probe(routed_, sketches_); });
        t.span("mpc.sim_execute", parent, [&] {
          simulator_->execute(routed_, "replay/sketch-update", sketches_);
        });
      }
      t.span("sketch.update_edges", parent,
             [&] { sketches_.update_edges(routed_); });
    }
  }

  // Euler layer: the spanning-forest diff of the batch.
  void euler_layer(const std::vector<Edge>& before,
                   const std::vector<Edge>& after, std::size_t parent,
                   Tracer& t) {
    cuts_.clear();
    links_.clear();
    std::set_difference(before.begin(), before.end(), after.begin(),
                        after.end(), std::back_inserter(cuts_));
    std::set_difference(after.begin(), after.end(), before.begin(),
                        before.end(), std::back_inserter(links_));
    t.span("euler.batch_cut", parent, [&] { forest_.batch_cut(cuts_); });
    t.span("euler.batch_link", parent, [&] { forest_.batch_link(links_); });
  }

 private:
  const Workload& w_;
  mpc::Cluster cluster_;
  VertexSketches sketches_;
  std::unique_ptr<mpc::Simulator> simulator_;
  EulerTourForest forest_;
  std::vector<EdgeDelta> deltas_;
  mpc::RoutedBatch routed_;
  std::vector<Edge> cuts_;
  std::vector<Edge> links_;
};

// ---------------------------------------------------------------------------
// Readers (serve-mixed): closed loops of point queries on the published
// snapshot, counted only while the writer is inside a timed batch.

class Readers {
 public:
  Readers(const System& sys, VertexId n, unsigned count, std::uint64_t seed)
      : sys_(sys), n_(n) {
    for (unsigned i = 0; i < count; ++i)
      threads_.emplace_back([this, seed, i] { loop(seed + 7919 * (i + 1)); });
  }
  ~Readers() { stop(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  void set_timed(bool on) { timed_.store(on, std::memory_order_release); }
  void stop() {
    stop_.store(true);
    for (auto& th : threads_)
      if (th.joinable()) th.join();
  }
  std::uint64_t reads() const { return reads_.load(); }
  std::uint64_t violations() const { return violations_.load(); }

 private:
  void loop(std::uint64_t seed) {
    Rng rng(seed);
    std::uint64_t last_version = 0;
    constexpr int kChunk = 64;
    while (!stop_.load(std::memory_order_relaxed)) {
      if (!timed_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      std::uint64_t done = 0;
      std::uint64_t connected = 0;
      for (int i = 0; i < kChunk; ++i) {
        const auto snap = sys_.published();
        const auto u = static_cast<VertexId>(rng.below(n_));
        const auto v = static_cast<VertexId>(rng.below(n_));
        connected += snap->connected(u, v);
        // QueryCache publishes strictly increasing versions.
        if (snap->version < last_version) violations_.fetch_add(1);
        last_version = snap->version;
        ++done;
      }
      sink_.fetch_add(connected, std::memory_order_relaxed);
      if (timed_.load(std::memory_order_acquire)) reads_.fetch_add(done);
    }
  }

  const System& sys_;
  VertexId n_;
  std::atomic<bool> timed_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> violations_{0};
  std::atomic<std::uint64_t> sink_{0};  // keeps the answers observable
  std::vector<std::thread> threads_;  // declared last: joined before the rest
};

// ---------------------------------------------------------------------------
// Metrics output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool count;  // a pure function of (workload, seed, seconds)
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string metric_name(const std::string& label) {
  std::string out = label;
  std::replace(out.begin(), out.end(), '/', '.');
  return out;
}

// ---------------------------------------------------------------------------
// The run.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int readers = -1;  // -1 = the workload's own reader count
  std::string trace_out;
};

int run(const Args& args) {
  const Workload* found = find_workload(args.workload);
  if (found == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  const Workload& w = *found;
  const unsigned readers =
      args.readers >= 0 ? static_cast<unsigned>(args.readers) : w.readers;
  const std::size_t batches = std::max<std::size_t>(
      kMinBatches,
      static_cast<std::size_t>(args.seconds * w.batches_per_second + 0.5));

  const Stream stream = make_stream(w, args.seed, batches);

  // Setup, repeated; the last instance is the one measured.
  std::vector<double> setup_times;
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sys.reset();
    const auto t0 = Clock::now();
    sys = std::make_unique<System>(w, stream.prefill);
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }

  Oracle oracle(w.n, stream.prefill);
  QueryCache::SnapshotPtr snap = sys->snapshot();
  const Verdict initial = check_snapshot(oracle, *snap);
  std::int64_t excess = initial.excess;

  Tracer tracer(args.trace);
  std::unique_ptr<Replay> replay;
  if (args.trace)
    replay = std::make_unique<Replay>(w, stream.prefill, snap->forest);
  std::vector<Edge> forest_before = snap->forest;

  mpc::Cluster& cluster = sys->cluster();
  const std::uint64_t rounds0 = cluster.rounds();
  const std::uint64_t words0 = cluster.comm_ledger().total_words();
  const std::uint64_t ledger_rounds0 = cluster.comm_ledger().rounds();
  const std::map<std::string, std::uint64_t> by_label0 =
      cluster.rounds_by_label();
  const FrontEndStats stats0 = sys->stats();
  const QueryCache::Stats cache0 = sys->cache_stats();
  const std::uint64_t sharded0 = sys->sketches().auto_sharded_batches();

  std::unique_ptr<Readers> reader_pool;
  if (readers > 0)
    reader_pool = std::make_unique<Readers>(*sys, w.n, readers, args.seed);

  std::vector<double> latency_ms;
  std::uint64_t updates = 0;
  double timed_s = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;    // partition differs from the oracle, or threw
  std::uint64_t unsound = 0;  // see check_snapshot
  std::uint64_t missed = 0;
  bool broken = false;  // a call threw: later batches are failures too
  for (std::size_t b = 0; b < stream.timed.size(); ++b) {
    const Batch& batch = stream.timed[b];
    Clock::time_point t0;
    Clock::time_point t1;
    if (!broken) {
      if (reader_pool) reader_pool->set_timed(true);
      t0 = Clock::now();
      try {
        tracer.span("core.apply", b, [&] { sys->apply(batch); });
        if (w.async_ingest)
          tracer.span("ingest.flush", b, [&] { sys->flush(); });
        tracer.span("query_cache.snapshot", b,
                    [&] { snap = sys->snapshot(); });
      } catch (const std::exception& e) {
        std::cerr << "batch " << b << " threw: " << e.what() << "\n";
        broken = true;
      }
      t1 = Clock::now();
      if (reader_pool) reader_pool->set_timed(false);
    }
    if (broken) {  // this batch threw, or an earlier one did
      ++failed;
      ++wrong;
      continue;
    }
    tracer.record(Tracer::kBatchSpan, b, t0, t1);
    latency_ms.push_back(1e3 * seconds_between(t0, t1));
    timed_s += seconds_between(t0, t1);
    updates += batch.size();

    // Outside the clock: the oracle check, then the replay.
    oracle.apply(batch);
    const Verdict v = check_snapshot(oracle, *snap);
    if (!v.sound && ++unsound == 1)
      std::cerr << "batch " << b << " unsound: " << v.problem << "\n";
    if (!v.equal) ++wrong;
    if (!v.equal || !v.sound) ++failed;
    if (v.excess > excess)
      missed += static_cast<std::uint64_t>(v.excess - excess);
    excess = v.excess;
    if (replay) {
      replay->sketch_layers(batch, b, tracer);
      if (w.front_end == FrontEnd::kDynamic)
        replay->euler_layer(forest_before, snap->forest, b, tracer);
      forest_before = snap->forest;
    }
  }
  if (reader_pool) reader_pool->stop();

  // ---- metrics -------------------------------------------------------------
  const double n_batches = static_cast<double>(latency_ms.size());
  const double n_updates = static_cast<double>(updates);
  const FrontEndStats stats = sys->stats();
  const QueryCache::Stats cache = sys->cache_stats();
  std::vector<Metric> m;
  auto add = [&](const std::string& name, double value, const char* unit,
                 bool count) { m.push_back(Metric{name, value, unit, count}); };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  // End to end.
  add("updates_per_s", ratio(n_updates, timed_s), "1/s", false);
  add("batch_p50_ms", latency_ms.empty() ? 0 : percentile(latency_ms, 0.5),
      "ms", false);
  add("batch_p90_ms", latency_ms.empty() ? 0 : percentile(latency_ms, 0.9),
      "ms", false);
  add("batch_samples", n_batches, "count", true);
  add("reads_per_s",
      reader_pool ? ratio(static_cast<double>(reader_pool->reads()), timed_s)
                  : 0.0,
      "1/s", false);
  add("rounds_per_batch",
      ratio(static_cast<double>(cluster.rounds() - rounds0), n_batches),
      "count", true);
  add("comm_words_per_update",
      ratio(static_cast<double>(cluster.comm_ledger().total_words() - words0),
            n_updates),
      "words", true);
  add("memory_words_per_vertex",
      static_cast<double>(sys->memory_words()) / w.n, "words", true);
  add("peak_rss_mb", peak_rss_mb(), "MB", false);
  std::vector<double> setup_sorted = setup_times;
  add("setup_s", percentile(setup_sorted, 0.5), "s", false);
  add("wrong_answer_ratio",
      ratio(static_cast<double>(wrong), static_cast<double>(batches)), "ratio",
      true);

  // Per layer: counters from the public Stats structs and the ledger.
  const auto* sim = sys->simulator();
  const auto* sched = sys->scheduler();
  const auto* gut = sys->gutter();
  add("mpc.sim.machine_steps", sim ? sim->stats().machine_steps : 0, "count",
      true);
  add("mpc.sim.budget_overruns", sim ? sim->stats().budget_overruns : 0,
      "count", true);
  add("mpc.sched.subbatches", sched ? sched->stats().subbatches : 0, "count",
      true);
  add("mpc.sched.splits", sched ? sched->stats().splits : 0, "count", true);
  add("mpc.max_machine_load_words",
      static_cast<double>(cluster.comm_ledger().max_machine_load()), "words",
      true);
  add("mpc.peak_resident_words",
      static_cast<double>(cluster.comm_ledger().peak_resident_words()),
      "words", true);
  // Ledger labels the workloads charge, reported even when a workload never
  // charges them; any other label seen is reported too.
  std::map<std::string, std::uint64_t> by_label = cluster.rounds_by_label();
  for (const char* label :
       {"connectivity/preprocess", "connectivity/batch",
        "connectivity/sketch-update", "connectivity/aux-H",
        "connectivity/sketch-merge", "connectivity/boruvka-gather",
        "connectivity/relabel", "euler/batch-join", "euler/batch-split",
        "streaming/sketch-update"})
    by_label.try_emplace(label, 0);
  for (const auto& [label, r] : by_label) {
    const auto it = by_label0.find(label);
    const std::uint64_t before = it == by_label0.end() ? 0 : it->second;
    add("mpc.rounds." + metric_name(label),
        ratio(static_cast<double>(r - before), n_batches), "count", true);
  }

  add("sketch.words_per_vertex",
      static_cast<double>(sys->sketches().allocated_words()) / w.n, "words",
      true);
  add("sketch.auto_sharded_batches",
      static_cast<double>(sys->sketches().auto_sharded_batches() - sharded0),
      "count", true);

  const double levels =
      static_cast<double>(stats.boruvka_levels - stats0.boruvka_levels);
  const bool dynamic = w.front_end == FrontEnd::kDynamic;
  add("core.boruvka_levels", levels, "count", true);
  add("core.empty_level_ratio",
      ratio(static_cast<double>(stats.empty_levels - stats0.empty_levels),
            levels),
      "ratio", true);
  add("core.max_banks_used", static_cast<double>(stats.max_banks_used),
      "count", true);
  add("core.replacements_found",
      dynamic ? static_cast<double>(stats.replacements_found -
                                    stats0.replacements_found)
              : 0.0,
      "count", true);
  add("core.tree_deletes",
      dynamic ? static_cast<double>(stats.tree_deletes - stats0.tree_deletes)
              : 0.0,
      "count", true);
  add("core.missed_replacements", dynamic ? static_cast<double>(missed) : 0.0,
      "count", true);

  const double repairs = static_cast<double>(cache.repairs - cache0.repairs);
  const double rebuilds =
      static_cast<double>(cache.rebuilds - cache0.rebuilds);
  add("query_cache.repairs", repairs, "count", true);
  add("query_cache.rebuilds", rebuilds, "count", true);
  add("query_cache.repair_ratio", ratio(repairs, repairs + rebuilds), "ratio",
      true);

  const double drains =
      gut ? static_cast<double>(gut->stats().capacity_drains +
                                gut->stats().flush_drains)
          : 0.0;
  add("ingest.submitted", gut ? gut->stats().submitted : 0, "count", true);
  add("ingest.drains", drains, "count", true);
  add("ingest.deltas_per_drain",
      gut ? ratio(static_cast<double>(gut->stats().submitted), drains) : 0.0,
      "ratio", true);
  add("ingest.peak_buffered", gut ? gut->stats().peak_buffered : 0, "count",
      true);

  add("stream.missed_replacements", dynamic ? 0.0 : static_cast<double>(missed),
      "count", true);
  add("stream.splits",
      dynamic ? 0.0 : static_cast<double>(stats.splits - stats0.splits),
      "count", true);
  add("stream.flushes_per_update",
      dynamic ? 0.0
              : ratio(static_cast<double>(cluster.comm_ledger().rounds() -
                                          ledger_rounds0),
                      n_updates),
      "ratio", true);
  add("graph.generate_s", stream.generate_s, "s", false);

  // Per layer: busy times from the spans (traced runs only).
  if (args.trace) {
    const double route = tracer.busy("mpc.route");
    const double probe = tracer.busy("mpc.probe");
    const double execute = tracer.busy("mpc.sim_execute");
    const double update = tracer.busy("sketch.update_edges");
    const double cut = tracer.busy("euler.batch_cut");
    const double link = tracer.busy("euler.batch_link");
    const double apply = tracer.busy("core.apply");
    add("mpc.route_busy_s", route, "s", false);
    add("mpc.probe_busy_s", probe, "s", false);
    add("mpc.sim_execute_busy_s", execute, "s", false);
    add("sketch.update_edges_busy_s", update, "s", false);
    add("euler.batch_cut_busy_s", cut, "s", false);
    add("euler.batch_link_busy_s", link, "s", false);
    add("core.apply_busy_s", apply, "s", false);
    // The replayed layers on this front end's real apply path: the
    // simulator when simulated, update_edges when routed synchronously,
    // neither when gutters drain asynchronously (that work lands in the
    // flush); Euler only under DynamicConnectivity.
    double on_path = 0;
    if (!w.async_ingest)
      on_path += route + (sim ? probe + execute : update);
    if (dynamic) on_path += cut + link;
    add("core.self_s", apply - on_path, "s", false);
    add("query_cache.snapshot_busy_s", tracer.busy("query_cache.snapshot"),
        "s", false);
    add("ingest.flush_busy_s", tracer.busy("ingest.flush"), "s", false);
    if (!args.trace_out.empty()) tracer.write(args.trace_out);
  }

  const std::uint64_t reader_violations =
      reader_pool ? reader_pool->violations() : 0;
  const bool correct = failed == 0 && reader_violations == 0 &&
                       initial.sound && initial.equal;

  // Human-readable report, then the JSON line.
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(stream.digest));
  std::cout << "workload " << w.name << " seed " << args.seed << " batches "
            << batches << " readers " << readers << " stream " << digest
            << "\n";
  std::cout << "env nproc " << std::thread::hardware_concurrency()
            << " compiler " << PERFBENCH_COMPILER << " build "
            << PERFBENCH_BUILD_TYPE << "\n";
  for (const Metric& x : m)
    std::cout << "  " << x.name << " = " << fmt(x.value) << " " << x.unit
              << "\n";
  std::cout << "check attempted " << batches << " failed " << failed
            << " wrong " << wrong << " unsound " << unsound << " missed "
            << missed
            << " reader_violations " << reader_violations << "\n";

  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << batches << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    js << (i ? ", " : "") << "\"" << json_escape(m[i].name)
       << "\": {\"value\": " << fmt(m[i].value) << ", \"unit\": \""
       << m[i].unit << "\"}";
  }
  js << "}, \"counts\": [";
  bool first = true;
  for (const Metric& x : m) {
    if (!x.count) continue;
    js << (first ? "" : ", ") << "\"" << json_escape(x.name) << "\"";
    first = false;
  }
  js << "], \"env\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"stream_digest\": \"" << digest
     << "\", \"readers\": " << readers << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--readers") {
      a.readers = std::stoi(val);
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing an assert-enabled build (define NDEBUG)\n";
  return 2;
#endif
  for (const char* knob : {"SMPC_SHARDS", "SMPC_SCHED", "SMPC_GROW",
                           "SMPC_SIM_THREADS", "SMPC_GUTTER_THREADS"}) {
    if (std::getenv(knob) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << knob << " set\n";
      return 2;
    }
  }
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::cerr << "usage: perfbench --workload <name> --seed <n> "
                   "--seconds <t> --trace <0|1> [--readers <k>] "
                   "[--trace-out <file>]\n";
      return 2;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
