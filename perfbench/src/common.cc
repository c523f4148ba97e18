#include "perfbench/src/common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/mem/slab.h"
#include "src/sync/lock_registry.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Gen::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Gen::Below(uint64_t bound) {
  // Multiply-shift: bias is below 2^-40 for the bounds used here.
  return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double Gen::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

Gen CallerGen(uint64_t seed, const char* workload, int caller) {
  uint64_t h = 1469598103934665603ULL;
  for (const char* p = workload; *p != '\0'; ++p) {
    h = (h ^ static_cast<uint8_t>(*p)) * 1099511628211ULL;
  }
  return Gen(Mix64(seed ^ Mix64(h + static_cast<uint64_t>(caller))));
}

ZipfTable::ZipfTable(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) {
    c /= sum;
  }
}

size_t ZipfTable::Sample(Gen& gen) const {
  double u = gen.Unit();
  size_t i = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

void FillPattern(uint64_t key, uint8_t* out, size_t n) {
  uint64_t base = Mix64(key);
  size_t i = 0;
  for (uint64_t w = 0; i + 8 <= n; ++w, i += 8) {
    uint64_t v = Mix64(base + w);
    std::memcpy(out + i, &v, 8);
  }
  if (i < n) {
    uint64_t v = Mix64(base + n);
    std::memcpy(out + i, &v, n - i);
  }
}

int64_t FirstDiff(skern::ByteView got, skern::ByteView want) {
  size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i] != want[i]) {
      return static_cast<int64_t>(i);
    }
  }
  return got.size() == want.size() ? -1 : static_cast<int64_t>(n);
}

void FailureLog::Add(std::string what) {
  std::lock_guard<std::mutex> guard(mu_);
  ++count_;
  if (first_.size() < kKept) {
    first_.push_back(std::move(what));
  }
}

uint64_t FailureLog::count() const {
  std::lock_guard<std::mutex> guard(mu_);
  return count_;
}

std::vector<std::string> FailureLog::first() const {
  std::lock_guard<std::mutex> guard(mu_);
  return first_;
}

void SetupFailed(const char* what, skern::Errno e) {
  std::fprintf(stderr, "setup: %s failed: %s\n", what, skern::ErrnoName(e));
  std::exit(2);
}

void CheckSetup(const skern::Status& st, const char* what) {
  if (!st.ok()) {
    SetupFailed(what, st.code());
  }
}

Stack::Stack(const WorkloadOptions& opts, uint64_t blocks, uint64_t inodes,
             uint64_t journal_blocks, std::function<int(const std::string&)> owner_of_path)
    : disk(std::make_unique<skern::RamDisk>(blocks, opts.seed)), vfs(std::make_unique<skern::Vfs>()) {
  skern::BlockDevice* dev = disk.get();
  if (opts.traced) {
    traced_disk = std::make_unique<TracedBlockDevice>(*disk);
    dev = traced_disk.get();
  }
  auto formatted = skern::SafeFs::Format(*dev, inodes, journal_blocks);
  if (!formatted.ok()) {
    SetupFailed("format", formatted.error());
  }
  fs = *formatted;
  std::shared_ptr<skern::FileSystem> mounted = fs;
  if (opts.traced) {
    mounted = std::make_shared<TracedFileSystem>(fs, std::move(owner_of_path));
  }
  CheckSetup(vfs->Mount("/", mounted), "mount");
}

void SnapshotStack(const Stack& stack, Counters& out) {
  const skern::SafeFs& fs = *stack.fs;
  skern::RamDiskStats d = stack.disk->stats();
  out["block.reads"] = static_cast<double>(d.reads);
  out["block.writes"] = static_cast<double>(d.writes);
  out["block.flushes"] = static_cast<double>(d.flushes);

  skern::JournalStats j = fs.journal_stats();
  out["journal.commits"] = static_cast<double>(j.commits);
  out["journal.txs"] = static_cast<double>(j.txs_committed);
  out["journal.blocks"] = static_cast<double>(j.blocks_journaled);
  out["journal.flushes"] = static_cast<double>(j.device_flushes);
  out["journal.checkpoints"] = static_cast<double>(j.checkpoints);

  skern::SafeFsIoStats io = fs.io_stats();
  out["fs.fast_reads"] = static_cast<double>(io.fast_reads);
  out["fs.slow_reads"] = static_cast<double>(io.slow_reads);
  out["fs.fast_writes"] = static_cast<double>(io.fast_writes);
  out["fs.slow_writes"] = static_cast<double>(io.slow_writes);
  out["fs.readahead_hits"] = static_cast<double>(io.readahead_hits);
  out["fs.blockmap_hits"] = static_cast<double>(io.blockmap_hits);
  out["fs.blockmap_misses"] = static_cast<double>(io.blockmap_misses);
  out["fs.wb_drains"] = static_cast<double>(io.wb_drains);
  out["fs.wb_cells"] = static_cast<double>(io.wb_drained_cells);

  skern::DcacheStats dc = fs.dcache_stats();
  out["dcache.hits"] = static_cast<double>(dc.hits);
  out["dcache.negative_hits"] = static_cast<double>(dc.negative_hits);
  out["dcache.misses"] = static_cast<double>(dc.misses);
  out["dcache.evictions"] = static_cast<double>(dc.evictions);

  out["vfs.dispatches"] = static_cast<double>(stack.vfs->stats().dispatches);

  double allocs = 0, frees = 0, mag_hits = 0, depot = 0, grows = 0, in_use = 0;
  for (const skern::mem::CacheStats& c : skern::mem::SnapshotAllCaches()) {
    allocs += static_cast<double>(c.allocs);
    frees += static_cast<double>(c.frees);
    mag_hits += static_cast<double>(c.magazine_hits);
    depot += static_cast<double>(c.depot_refills + c.depot_drains);
    grows += static_cast<double>(c.slab_grows);
    in_use += static_cast<double>(c.objs_in_use);
  }
  out["mem.allocs"] = allocs;
  out["mem.frees"] = frees;
  out["mem.magazine_hits"] = mag_hits;
  out["mem.depot_trips"] = depot;
  out["mem.slab_grows"] = grows;
  out["mem.objs_in_use"] = in_use;

  for (const skern::LockContentionSnapshot& c :
       skern::LockRegistry::Get().TopContended(skern::kMaxLockClasses)) {
    out["sync." + c.name + ".wait_ns"] = static_cast<double>(c.total_wait_ns);
  }
}

namespace {

void DigestInto(skern::Vfs& vfs, const std::string& path, uint64_t& h) {
  auto mix = [&h](uint64_t v) { h = Mix64(h ^ v); };
  auto names = vfs.Readdir(path);
  if (!names.ok()) {
    mix(0xdead0000ULL + static_cast<uint64_t>(names.error()));
    return;
  }
  for (const std::string& name : *names) {
    std::string child = path == "/" ? "/" + name : path + "/" + name;
    for (char c : child) {
      mix(static_cast<uint8_t>(c));
    }
    auto attr = vfs.Stat(child);
    if (!attr.ok()) {
      mix(0xbad0000ULL + static_cast<uint64_t>(attr.error()));
      continue;
    }
    mix(attr->is_dir);
    mix(attr->mode);
    mix(attr->uid);
    if (attr->is_dir) {
      // Directory sizes depend on how concurrent creates and unlinks
      // interleaved; only their entries are part of the contents.
      DigestInto(vfs, child, h);
      continue;
    }
    mix(attr->size);
    auto fd = vfs.Open(child, skern::kOpenRead);
    if (!fd.ok()) {
      mix(0xf00d0000ULL + static_cast<uint64_t>(fd.error()));
      continue;
    }
    auto data = vfs.Pread(*fd, 0, attr->size);
    if (data.ok()) {
      for (size_t i = 0; i < data->size(); i += 8) {
        uint64_t w = 0;
        std::memcpy(&w, data->data() + i, std::min<size_t>(8, data->size() - i));
        mix(w);
      }
    }
    (void)vfs.Close(*fd);
  }
}

}  // namespace

uint64_t TreeDigest(skern::Vfs& vfs, const std::string& root) {
  uint64_t h = 0;
  DigestInto(vfs, root, h);
  return h;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const WorkloadOptions& opts) {
  if (name == "kv_rpc") {
    return MakeKvRpc(opts);
  }
  if (name == "ingest_aio") {
    return MakeIngestAio(opts);
  }
  if (name == "fileserver_cold") {
    return MakeFileserver(opts);
  }
  return nullptr;
}

}  // namespace perfbench
