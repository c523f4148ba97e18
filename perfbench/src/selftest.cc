// Self-tests for the benchmark itself (run.py --selftest):
//   1. each generator yields the same op stream for the same seed and a
//      different one for a different seed;
//   2. each workload's output check catches an injected fault: with safefs
//      dropping the last byte of every write, error_rate must be > 0;
//   3. the decorators forward every virtual: a traced and an untraced run of
//      the same ops end with identical file-system contents and no failures.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"

namespace perfbench {
namespace {

constexpr uint64_t kOpsPerCaller = 3000;
const char* const kWorkloads[] = {"kv_rpc", "ingest_aio", "fileserver_cold"};

struct Outcome {
  uint64_t failed = 0;
  uint64_t digest = 0;
};

// Runs kOpsPerCaller ops on every caller, digests the tree, then runs the
// workload's final check.
Outcome RunFixed(const std::string& name, const WorkloadOptions& opts) {
  std::unique_ptr<Workload> w = MakeWorkload(name, opts);
  w->Setup();
  trace::SetEnabled(opts.traced);
  std::atomic<bool> stop{false};
  std::vector<CallerStats> stats(w->callers());
  std::vector<std::thread> threads;
  for (int c = 0; c < w->callers(); ++c) {
    threads.emplace_back([&, c] { w->Run(c, stop, kOpsPerCaller, stats[c]); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  trace::SetEnabled(false);
  Outcome out;
  out.digest = TreeDigest(w->vfs(), "/");
  (void)w->FinalCheck();
  out.failed = w->failures().count();
  return out;
}

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) {
    ++g_failures;
  }
}

}  // namespace

int RunSelfTest() {
  using Digest = uint64_t (*)(uint64_t, uint64_t);
  const Digest digests[] = {KvRpcStreamDigest, IngestAioStreamDigest, FileserverStreamDigest};
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    std::string name = kWorkloads[i];
    Expect(digests[i](7, 5000) == digests[i](7, 5000), name + ": same seed, same op stream");
    Expect(digests[i](7, 5000) != digests[i](8, 5000), name + ": other seed, other op stream");
  }
  for (const char* name : kWorkloads) {
    WorkloadOptions opts;
    opts.seed = 11;
    Outcome plain = RunFixed(name, opts);
    Expect(plain.failed == 0, std::string(name) + ": untraced run has no failures (" +
                                  std::to_string(plain.failed) + ")");
    opts.traced = true;
    Outcome traced = RunFixed(name, opts);
    Expect(traced.failed == 0, std::string(name) + ": traced run has no failures (" +
                                   std::to_string(traced.failed) + ")");
    Expect(traced.digest == plain.digest,
           std::string(name) + ": traced and untraced runs leave identical trees");
    opts.traced = false;
    opts.fault = skern::SafeFsSemanticFault::kWriteIgnoresTailByte;
    Outcome faulty = RunFixed(name, opts);
    Expect(faulty.failed > 0, std::string(name) + ": injected write fault is caught (" +
                                  std::to_string(faulty.failed) + " failures)");
  }
  std::printf("%s: %d failed\n", g_failures == 0 ? "selftest passed" : "selftest FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
