// skern_perfbench: runs one workload against a freshly formatted skern stack
// and prints its metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (measured untraced);
// with --trace 1 they are the per-layer ones from a traced window.
//
//   skern_perfbench --workload kv_rpc --seed 1 --seconds 10 --trace 0
//   skern_perfbench --selftest
#include <cpuid.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/obs/metrics.h"

namespace perfbench {
namespace {

// setup_s is the median of several setups in one run: at least kMinSetups,
// more while they take under kSetupBudgetSeconds in total. A 20 ms setup
// alternates between a fast and a slow level for stretches of a few setups
// (page-fault cost of the RAM disk's buffer), so it needs dozens of samples
// before the median stops depending on which level a run happened to start in.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 50;
constexpr double kSetupBudgetSeconds = 1.0;
constexpr double kWarmupSeconds = 1.0;
// The timed window of an untraced run is cut into this many equal slices;
// throughput, latency quantiles and CPU per op report the median slice.
constexpr int kSlices = 10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string git_sha = "unknown";
  std::string spans_out;  // traced runs: where to write the span sample
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: skern_perfbench --workload {kv_rpc|ingest_aio|fileserver_cold} "
               "--seed N --seconds S --trace {0|1} [--git-sha SHA] [--spans-out FILE]\n"
               "       skern_perfbench --selftest\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad number for " + flag).c_str());
    }
  }
  if (!a.selftest && (a.workload.empty() || !(a.seconds > 0) || a.seconds > 600)) {
    Usage("need --workload and 0 < --seconds <= 600");
  }
  return a;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) {
    return "unknown";
  }
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// One measurement window: every caller runs its closed loop until `seconds`
// have passed; ops in flight at the deadline complete and count (in the last
// slice). A sliced window also reports each slice's throughput, latency
// quantiles and CPU per op, so a run can report the median slice: a few
// seconds of interference from outside the process then move the result
// less than they would move whole-window figures.
struct Slice {
  double tput = 0;
  double p50_us = 0;
  double p99_us = 0;
  double cpu_us_per_op = 0;
};

struct Window {
  CallerStats total;
  double seconds = 0;
  double cpu_seconds = 0;
  std::vector<Slice> slices;
};

// Latency samples a caller can record before its vector reallocates. Reserved
// up front so that peak_rss_mib does not jump with the op count at each
// doubling (pages are touched only as samples arrive).
constexpr size_t kReservedSamples = size_t{1} << 22;

double Quantile(std::vector<uint32_t>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  size_t k = std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

Window RunWindow(Workload& w, double seconds, int slices = 1) {
  const int n = w.callers();
  const uint64_t slice_ns = static_cast<uint64_t>(seconds * 1e9 / slices);
  std::vector<CallerStats> stats(n);
  for (CallerStats& s : stats) {
    s.lat_ns.reserve(kReservedSamples);
    s.slice_ns = slices > 1 ? slice_ns : 0;
  }
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      w.Run(c, stop, 0, stats[c]);
    });
  }
  std::vector<double> cpu_at{CpuSeconds()};  // at each slice boundary
  uint64_t t0 = NowNs();
  for (CallerStats& s : stats) {
    s.window_start_ns = t0;
  }
  go.store(true, std::memory_order_release);
  for (int k = 1; k <= slices; ++k) {
    uint64_t due = t0 + (k == slices ? static_cast<uint64_t>(seconds * 1e9) : k * slice_ns);
    uint64_t now = NowNs();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    cpu_at.push_back(CpuSeconds());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) {
    t.join();
  }
  Window out;
  out.seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  out.cpu_seconds = CpuSeconds() - cpu_at.front();
  if (slices > 1) {
    // Slice boundaries per caller: ops that finished after the deadline count
    // in the last slice.
    for (CallerStats& s : stats) {
      s.slice_end.resize(slices - 1, s.lat_ns.size());
      s.slice_end.insert(s.slice_end.begin(), 0);
      s.slice_end.push_back(s.lat_ns.size());
    }
    std::vector<uint32_t> lat;
    for (int k = 0; k < slices; ++k) {
      lat.clear();
      for (const CallerStats& s : stats) {
        lat.insert(lat.end(), s.lat_ns.begin() + static_cast<std::ptrdiff_t>(s.slice_end[k]),
                   s.lat_ns.begin() + static_cast<std::ptrdiff_t>(s.slice_end[k + 1]));
      }
      Slice slice;
      double ops = static_cast<double>(lat.size());
      slice.tput = ops / (static_cast<double>(slice_ns) * 1e-9);
      slice.p50_us = Quantile(lat, 0.50) / 1000;
      slice.p99_us = Quantile(lat, 0.99) / 1000;
      slice.cpu_us_per_op = ops > 0 ? (cpu_at[k + 1] - cpu_at[k]) * 1e6 / ops : 0;
      out.slices.push_back(slice);
    }
  }
  size_t samples = 0;
  for (const CallerStats& s : stats) {
    samples += s.lat_ns.size();
  }
  out.total.lat_ns.reserve(samples);
  for (CallerStats& s : stats) {
    CallerStats& t = out.total;
    t.lat_ns.insert(t.lat_ns.end(), s.lat_ns.begin(), s.lat_ns.end());
    t.ops += s.ops;
    t.attempted += s.attempted;
    t.failed += s.failed;
    t.user_bytes_written += s.user_bytes_written;
    t.recv_calls += s.recv_calls;
    t.recv_eagain += s.recv_eagain;
    t.aio_enqueues += s.aio_enqueues;
    t.aio_submits += s.aio_submits;
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  // what a ratio is taken over, for the report
};

class MetricList {
 public:
  void Add(std::string name, double value, std::string unit, std::string base = "") {
    list_.push_back(Metric{std::move(name), value, std::move(unit), std::move(base)});
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

const char* const kVfsOps[] = {"pread", "pwrite", "read",    "write", "open",  "close",
                               "stat",  "unlink", "rename", "readdir", "fsync", "sync"};
const Sp kVfsSpans[] = {Sp::kVfsPread, Sp::kVfsPwrite, Sp::kVfsRead,   Sp::kVfsWrite,
                        Sp::kVfsOpen,  Sp::kVfsClose,  Sp::kVfsStat,   Sp::kVfsUnlink,
                        Sp::kVfsRename, Sp::kVfsReaddir, Sp::kVfsFsync, Sp::kVfsSync};
const Sp kFsSpans[] = {Sp::kFsReadAt,  Sp::kFsWriteAt, Sp::kFsWriteAtBatch, Sp::kFsStatHandle,
                       Sp::kFsOpenByPath, Sp::kFsCreate, Sp::kFsStat,        Sp::kFsUnlink,
                       Sp::kFsRename,  Sp::kFsReaddir, Sp::kFsFsync,       Sp::kFsSync};
const char* const kSyncClasses[] = {"safefs.lock", "safefs.inode",  "safefs.handles",
                                    "vfs.lock",    "vfs.fd",        "journal.commit",
                                    "journal.stage", "journal.overlay", "net.sock",
                                    "net.stack.shard", "aio.engine", "aio.pass"};

void AddLayerMetrics(const TraceSummary& tr, const Counters& before, const Counters& after,
                     const Window& win, double untraced_tput, MetricList& m) {
  auto delta = [&](const std::string& key) {
    auto a = after.find(key);
    auto b = before.find(key);
    return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
  };
  const double ops = static_cast<double>(win.total.ops);
  const std::string per_op = std::to_string(win.total.ops) + " ops";
  auto span = [&](Sp s) -> const SpanAgg& { return tr.spans[static_cast<size_t>(s)]; };
  auto self_ns = [&](Sp s) { return Ratio(static_cast<double>(span(s).self_ns), static_cast<double>(span(s).count)); };
  auto p50 = [&](Sp s) { return static_cast<double>(span(s).dur.Quantile(0.5)); };
  auto calls = [&](Sp s) { return std::to_string(span(s).count) + " calls"; };

  // net
  m.Add("net.send.self_ns", self_ns(Sp::kNetSend), "ns", calls(Sp::kNetSend));
  m.Add("net.recv.self_ns", self_ns(Sp::kNetRecv), "ns", calls(Sp::kNetRecv));
  m.Add("net.recv_eagain_ratio",
        Ratio(static_cast<double>(win.total.recv_eagain), static_cast<double>(win.total.recv_calls)),
        "ratio", std::to_string(win.total.recv_calls) + " RecvChain calls");
  m.Add("net.packets_per_req", Ratio(delta("net.packets"), ops), "count", per_op);
  m.Add("net.bytes_copied_per_req", Ratio(delta("net.bytes_copied"), ops), "bytes", per_op);
  // vfs
  for (size_t i = 0; i < std::size(kVfsOps); ++i) {
    std::string base = std::string("vfs.") + kVfsOps[i];
    m.Add(base + ".p50_ns", p50(kVfsSpans[i]), "ns", calls(kVfsSpans[i]));
    m.Add(base + ".self_ns", self_ns(kVfsSpans[i]), "ns", calls(kVfsSpans[i]));
  }
  m.Add("vfs.dispatches_per_op", Ratio(delta("vfs.dispatches"), ops), "count", per_op);
  // dcache
  double dc_hits = delta("dcache.hits") + delta("dcache.negative_hits");
  double dc_lookups = dc_hits + delta("dcache.misses");
  m.Add("dcache.hit_ratio", Ratio(dc_hits, dc_lookups), "ratio",
        std::to_string(static_cast<uint64_t>(dc_lookups)) + " lookups");
  m.Add("dcache.evictions_per_kop", Ratio(delta("dcache.evictions") * 1000, ops), "count", per_op);
  // fs
  for (Sp s : kFsSpans) {
    std::string base = SpanName(s);
    m.Add(base + ".p50_ns", p50(s), "ns", calls(s));
    m.Add(base + ".self_ns", self_ns(s), "ns", calls(s));
  }
  double reads = delta("fs.fast_reads") + delta("fs.slow_reads");
  double writes = delta("fs.fast_writes") + delta("fs.slow_writes");
  double maps = delta("fs.blockmap_hits") + delta("fs.blockmap_misses");
  std::string read_base = std::to_string(static_cast<uint64_t>(reads)) + " handle reads";
  m.Add("fs.fast_read_ratio", Ratio(delta("fs.fast_reads"), reads), "ratio", read_base);
  m.Add("fs.fast_write_ratio", Ratio(delta("fs.fast_writes"), writes), "ratio",
        std::to_string(static_cast<uint64_t>(writes)) + " handle writes");
  m.Add("fs.wb_drains_per_kop", Ratio(delta("fs.wb_drains") * 1000, ops), "count", per_op);
  m.Add("fs.wb_cells_per_drain", Ratio(delta("fs.wb_cells"), delta("fs.wb_drains")), "count",
        std::to_string(static_cast<uint64_t>(delta("fs.wb_drains"))) + " drains");
  m.Add("fs.readahead_hit_ratio", Ratio(delta("fs.readahead_hits"), reads), "ratio", read_base);
  m.Add("fs.blockmap_miss_ratio", Ratio(delta("fs.blockmap_misses"), maps), "ratio",
        std::to_string(static_cast<uint64_t>(maps)) + " block-map probes");
  // block device
  m.Add("block.read.p50_ns", p50(Sp::kBlockRead), "ns", calls(Sp::kBlockRead));
  m.Add("block.write.p50_ns", p50(Sp::kBlockWrite), "ns", calls(Sp::kBlockWrite));
  m.Add("block.flush.p50_ns", p50(Sp::kBlockFlush), "ns", calls(Sp::kBlockFlush));
  m.Add("block.reads_per_op", Ratio(delta("block.reads"), ops), "count", per_op);
  m.Add("block.writes_per_op", Ratio(delta("block.writes"), ops), "count", per_op);
  m.Add("block.flushes_per_op", Ratio(delta("block.flushes"), ops), "count", per_op);
  // journal
  double commits = delta("journal.commits");
  std::string commit_base = std::to_string(static_cast<uint64_t>(commits)) + " commits";
  m.Add("journal.txs_per_commit", Ratio(delta("journal.txs"), commits), "count", commit_base);
  m.Add("journal.blocks_per_commit", Ratio(delta("journal.blocks"), commits), "count", commit_base);
  m.Add("journal.flushes_per_commit", Ratio(delta("journal.flushes"), commits), "count", commit_base);
  m.Add("journal.checkpoints_per_kop", Ratio(delta("journal.checkpoints") * 1000, ops), "count",
        per_op);
  // aio
  m.Add("aio.enqueue.p50_ns", p50(Sp::kAioEnqueue), "ns", calls(Sp::kAioEnqueue));
  m.Add("aio.submit.p50_ns", p50(Sp::kAioSubmit), "ns", calls(Sp::kAioSubmit));
  m.Add("aio.harvest_wait.p50_ns", p50(Sp::kAioHarvestWait), "ns", calls(Sp::kAioHarvestWait));
  m.Add("aio.ops_per_submit",
        Ratio(delta("aio.submitted"), static_cast<double>(win.total.aio_submits)), "count",
        std::to_string(win.total.aio_submits) + " submits");
  m.Add("aio.sq_full_ratio",
        Ratio(delta("aio.sq_full"), static_cast<double>(win.total.aio_enqueues)), "ratio",
        std::to_string(win.total.aio_enqueues) + " enqueues");
  // mem
  // Magazine hits count both allocation and free fast paths.
  double slab_calls = delta("mem.allocs") + delta("mem.frees");
  m.Add("mem.magazine_hit_ratio", Ratio(delta("mem.magazine_hits"), slab_calls), "ratio",
        std::to_string(static_cast<uint64_t>(slab_calls)) + " slab allocs + frees");
  m.Add("mem.depot_trips_per_kop", Ratio(delta("mem.depot_trips") * 1000, ops), "count", per_op);
  m.Add("mem.slab_grows", delta("mem.slab_grows"), "count", "timed window");
  m.Add("mem.objs_in_use_growth", delta("mem.objs_in_use"), "count", "timed window");
  // sync
  for (const char* cls : kSyncClasses) {
    m.Add(std::string("sync.") + cls + ".wait_ns_per_op",
          Ratio(delta(std::string("sync.") + cls + ".wait_ns"), ops), "ns", per_op);
  }
  // tracing itself
  double traced_tput = Ratio(ops, win.seconds);
  m.Add("trace_overhead_pct", (Ratio(untraced_tput, traced_tput) - 1) * 100, "%",
        "untraced " + Num(untraced_tput) + " vs traced " + Num(traced_tput) + " ops/s");
  uint64_t layer_self = 0;
  for (size_t i = 0; i < kSpanNames; ++i) {
    if (SpanLayer(static_cast<Sp>(i)) != nullptr) {
      layer_self += tr.spans[i].self_ns;
    }
  }
  m.Add("trace.layer_share_pct",
        Ratio(static_cast<double>(layer_self) * 100, static_cast<double>(tr.root_dur_ns)), "%",
        std::to_string(tr.roots) + " request spans");
}

// One line per workload: which share of the mean request latency each
// layer's self time accounts for.
void PrintLayerShares(const std::string& workload, const TraceSummary& tr) {
  const char* layers[] = {"net", "vfs", "fs", "block", "aio"};
  double mean_us = Ratio(static_cast<double>(tr.root_dur_ns), static_cast<double>(tr.roots)) / 1000;
  std::printf("layer shares of mean %s latency (%.3f us over %llu requests):", workload.c_str(),
              mean_us, static_cast<unsigned long long>(tr.roots));
  double covered = 0;
  for (const char* layer : layers) {
    uint64_t self = 0;
    for (size_t i = 0; i < kSpanNames; ++i) {
      const char* l = SpanLayer(static_cast<Sp>(i));
      if (l != nullptr && std::strcmp(l, layer) == 0) {
        self += tr.spans[i].self_ns;
      }
    }
    double pct = Ratio(static_cast<double>(self) * 100, static_cast<double>(tr.root_dur_ns));
    covered += pct;
    std::printf(" %s %.1f%%", layer, pct);
  }
  std::printf("; layers together %.1f%%, benchmark code %.1f%%\n", covered, 100 - covered);
}

int RunBenchmark(const Args& args) {
  WorkloadOptions opts;
  opts.seed = args.seed;
  opts.traced = args.trace;
  if (MakeWorkload(args.workload, opts) == nullptr) {
    Usage(("unknown workload " + args.workload).c_str());
  }

  std::printf("skern perfbench: workload=%s seed=%llu seconds=%s trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str(), args.trace ? 1 : 0);
  std::unique_ptr<Workload> w;
  std::vector<double> setups;
  double setup_total = 0;
  while (setups.empty() ||
         (!args.trace && setups.size() < kMaxSetups &&
          (setups.size() < kMinSetups || setup_total < kSetupBudgetSeconds))) {
    w.reset();
    uint64_t t0 = NowNs();
    w = MakeWorkload(args.workload, opts);
    w->Setup();
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    setup_total += setups.back();
  }

  std::string manifest = "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                         ", \"cpu\": " + JsonStr(CpuModel()) +
                         ", \"build_type\": " + JsonStr(PERFBENCH_BUILD_TYPE) +
                         ", \"compiler\": " + JsonStr(__VERSION__) +
                         ", \"git_sha\": " + JsonStr(args.git_sha) +
                         ", \"obs\": {\"metrics\": " +
                         (skern::obs::MetricsEnabled() ? "true" : "false") +
                         ", \"latency_timing\": " +
                         (skern::obs::LatencyTimingEnabled() ? "true" : "false") +
                         "}, \"workload\": " + JsonStr(args.workload) +
                         ", \"seed\": " + std::to_string(args.seed) +
                         ", \"seconds\": " + Num(args.seconds) +
                         ", \"warmup_seconds\": " + Num(kWarmupSeconds) + ", \"sizes\": {";
  bool first = true;
  for (const auto& [k, v] : w->Sizes()) {
    manifest += (first ? "" : ", ") + JsonStr(k) + ": " + JsonStr(v);
    first = false;
  }
  manifest += "}}";
  std::printf("manifest %s\n", manifest.c_str());
  std::fflush(stdout);

  Window warm = RunWindow(*w, kWarmupSeconds);
  uint64_t attempted = warm.total.attempted;
  uint64_t failed = warm.total.failed;
  MetricList metrics;
  if (!args.trace) {
    Counters before = w->Snapshot();
    Window win = RunWindow(*w, args.seconds, kSlices);
    Counters after = w->Snapshot();
    attempted += win.total.attempted;
    failed += win.total.failed;
    auto median = [&](double Slice::*field) {
      std::vector<double> v;
      for (const Slice& slice : win.slices) {
        v.push_back(slice.*field);
      }
      std::sort(v.begin(), v.end());
      return (v[(v.size() - 1) / 2] + v[v.size() / 2]) / 2;
    };
    const std::string sliced = "median of " + std::to_string(kSlices) + " slices; ";
    size_t samples = win.total.lat_ns.size();
    std::string sample_note = sliced + std::to_string(samples) + " samples, whole-window ";
    double dev_bytes = (after["block.writes"] - before["block.writes"]) * skern::kBlockSize;
    std::sort(setups.begin(), setups.end());
    metrics.Add("throughput_ops_s", median(&Slice::tput), "ops/s",
                sliced + std::to_string(win.total.ops) + " ops in " + Num(win.seconds) + " s");
    metrics.Add("lat_p50_us", median(&Slice::p50_us), "us",
                sample_note + Num(Quantile(win.total.lat_ns, 0.50) / 1000));
    metrics.Add("lat_p99_us", median(&Slice::p99_us), "us",
                sample_note + Num(Quantile(win.total.lat_ns, 0.99) / 1000));
    metrics.Add("cpu_us_per_op", median(&Slice::cpu_us_per_op), "us",
                sliced + Num(win.cpu_seconds) + " CPU s in all");
    metrics.Add("write_amp", Ratio(dev_bytes, static_cast<double>(win.total.user_bytes_written)),
                "ratio",
                Num(dev_bytes) + " device bytes / " + std::to_string(win.total.user_bytes_written) +
                    " user bytes");
    metrics.Add("peak_rss_mib", PeakRssMib(), "MiB");
    metrics.Add("setup_s", setups[setups.size() / 2], "s",
                "median of " + std::to_string(setups.size()) + " setups");
  } else {
    Window untraced = RunWindow(*w, args.seconds / 2);
    double untraced_tput = Ratio(static_cast<double>(untraced.total.ops), untraced.seconds);
    trace::Reset();
    trace::SetEnabled(true);
    Counters before = w->Snapshot();
    Window win = RunWindow(*w, args.seconds / 2);
    Counters after = w->Snapshot();
    trace::SetEnabled(false);
    TraceSummary tr = trace::Collect();
    attempted += untraced.total.attempted + win.total.attempted;
    failed += untraced.total.failed + win.total.failed;
    AddLayerMetrics(tr, before, after, win, untraced_tput, metrics);
    PrintLayerShares(args.workload, tr);
    if (!args.spans_out.empty()) {
      bool ok = trace::WriteSpanSample(args.spans_out);
      std::printf("span sample: %s%s\n", args.spans_out.c_str(), ok ? "" : " (write failed)");
    }
  }

  uint64_t logged = w->failures().count();
  uint64_t checked = w->FinalCheck();
  uint64_t final_failures = w->failures().count() - logged;
  attempted += checked;
  failed += final_failures;

  for (const Metric& m : metrics.list()) {
    std::printf("%-34s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.base.empty() ? "" : ("(" + m.base + ")").c_str());
  }
  std::printf("error_rate %.6g (%llu failed / %llu attempted, %llu of them read back after the run)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(checked));
  for (const std::string& f : w->failures().first()) {
    std::printf("failure: %s\n", f.c_str());
  }
  w.reset();

  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  first = true;
  for (const Metric& m : metrics.list()) {
    json += (first ? "" : ", ") + JsonStr(m.name) + ": {\"value\": " + Num(m.value) +
            ", \"unit\": " + JsonStr(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::Parse(argc, argv);
  if (args.selftest) {
    return perfbench::RunSelfTest();
  }
  return perfbench::RunBenchmark(args);
}
