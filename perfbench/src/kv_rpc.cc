// kv_rpc: a tenant key-value service over TCP. Two callers, each owning one
// connection between two modular stacks on a zero-delay wire; the server
// handler runs on the sending thread (delivery is synchronous), parses the
// request under the tenant's credential, and serves it with Pread/Pwrite on
// files only that tenant may open. The working set (8 MiB) fits the safefs
// read cache, so the net, descriptor and read fast paths carry the load.
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/base/cred.h"
#include "src/base/sim_clock.h"
#include "src/net/buf_chain.h"
#include "src/net/network.h"
#include "src/net/stack_modular.h"

namespace perfbench {
namespace {

using skern::Bytes;
using skern::ByteView;

// Two callers on a 4-vCPU host: with all four vCPUs busy, any other process
// on the machine took a quarter of the throughput and doubled p99 for minutes
// at a time; with two, the run keeps cores to spare.
constexpr int kTenants = 2;
constexpr uint32_t kFiles = 64;
constexpr uint32_t kRecordsPerFile = 128;
constexpr uint32_t kRecordBytes = 1024;
constexpr uint32_t kRecordsPerTenant = kFiles * kRecordsPerFile / kTenants;  // 4096
constexpr double kZipfS = 0.99;
constexpr double kPutShare = 0.05;
constexpr uint64_t kFsyncEveryPuts = 64;
constexpr uint64_t kDiskBlocks = 8192;  // 32 MiB
constexpr uint64_t kInodes = 256;
constexpr uint64_t kJournalBlocks = 1024;
constexpr uint32_t kUidBase = 1000;
constexpr uint16_t kPort = 7000;
constexpr uint32_t kClientIp = 1;
constexpr uint32_t kServerIp = 2;
// Wire format: request = magic, op, key, version (+ the record for a PUT);
// reply = magic, status (an Errno), payload length (+ the record for a GET).
constexpr size_t kHeaderBytes = 16;
constexpr uint32_t kReqMagic = 0x4b565251;    // "KVRQ"
constexpr uint32_t kReplyMagic = 0x4b565250;  // "KVRP"
constexpr uint64_t kMaxRecvSpins = 1u << 20;

struct KvOp {
  bool put = false;
  uint32_t record = 0;  // tenant-local record index
};

// One tenant's op stream: Zipf(0.99) ranks over the tenant's 4096 records.
// Rank r maps to record r * kScatter mod 4096, which spreads the hot records
// over the tenant's files. The mapping is fixed, not seeded: which records are
// hot (and so which files PUTs keep dirty) would otherwise move throughput by
// more than the run-to-run noise from one seed to the next.
constexpr uint32_t kScatter = 1031;  // odd, so the map is a permutation

class KvGen {
 public:
  KvGen(uint64_t seed, int tenant) : gen_(CallerGen(seed, "kv_rpc", tenant)) {}

  KvOp Next() {
    static const ZipfTable zipf(kRecordsPerTenant, kZipfS);
    KvOp op;
    op.record = static_cast<uint32_t>(zipf.Sample(gen_) * kScatter % kRecordsPerTenant);
    op.put = gen_.Unit() < kPutShare;
    return op;
  }

 private:
  Gen gen_;
};

uint32_t FileOf(int tenant, uint32_t record) {
  return static_cast<uint32_t>(tenant) + kTenants * (record / kRecordsPerFile);
}
uint32_t KeyOf(int tenant, uint32_t record) {
  return FileOf(tenant, record) * kRecordsPerFile + record % kRecordsPerFile;
}
std::string FilePath(uint32_t file) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/kv/f%02u", file);
  return buf;
}

void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

// A record: key, version, checksum of the body, then the body itself.
void MakeRecord(uint32_t key, uint32_t version, uint8_t* out) {
  PutU32(out, key);
  PutU32(out + 4, version);
  FillPattern((uint64_t{key} << 32) | version, out + 16, kRecordBytes - 16);
  uint64_t sum = 0;
  for (uint32_t i = 16; i < kRecordBytes; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, out + i, 8);
    sum = Mix64(sum ^ w);
  }
  std::memcpy(out + 8, &sum, 8);
}

class KvRpc : public Workload {
 public:
  explicit KvRpc(const WorkloadOptions& opts) : opts_(opts) {}

  int callers() const override { return kTenants; }
  skern::Vfs& vfs() override { return *stack_->vfs; }

  std::vector<std::pair<std::string, std::string>> Sizes() const override {
    return {{"callers", "2 (one TCP connection and one tenant uid each)"},
            {"records", "8192 x 1 KiB in 64 files (8 MiB), 4096 per tenant"},
            {"keys", "Zipf(0.99) per tenant"},
            {"mix", "95% GET / 5% PUT, Fsync every 64 PUTs per caller"},
            {"disk", "8192 blocks (32 MiB), journal 1024 blocks"}};
  }

  void Setup() override {
    stack_ = std::make_unique<Stack>(opts_, kDiskBlocks, kInodes, kJournalBlocks);
    skern::Vfs& vfs = *stack_->vfs;
    CheckSetup(vfs.Mkdir("/kv"), "mkdir");
    Bytes image(kRecordsPerFile * kRecordBytes);
    for (uint32_t f = 0; f < kFiles; ++f) {
      for (uint32_t r = 0; r < kRecordsPerFile; ++r) {
        MakeRecord(f * kRecordsPerFile + r, 0, image.data() + r * kRecordBytes);
      }
      std::string path = FilePath(f);
      auto fd = vfs.Open(path, skern::kOpenWrite | skern::kOpenCreate);
      if (!fd.ok()) {
        SetupFailed("create", fd.error());
      }
      CheckSetup(vfs.Write(*fd, ByteView(image)), "populate");
      CheckSetup(vfs.Close(*fd), "close");
      uint32_t uid = kUidBase + f % kTenants;
      CheckSetup(vfs.Chown(path, uid, uid), "chown");
      CheckSetup(vfs.Chmod(path, 0600), "chmod");
    }
    CheckSetup(vfs.SyncAll(), "sync");
    for (int t = 0; t < kTenants; ++t) {
      skern::ScopedCred cred(TenantCred(t));
      for (uint32_t j = 0; j < kFiles / kTenants; ++j) {
        auto fd = vfs.Open(FilePath(t + kTenants * j), skern::kOpenRead | skern::kOpenWrite);
        if (!fd.ok()) {
          SetupFailed("tenant open", fd.error());
        }
        callers_[t].fds.push_back(*fd);
      }
      callers_[t].gen = std::make_unique<KvGen>(opts_.seed, t);
      callers_[t].versions.assign(kRecordsPerTenant, 0);
    }
    clock_ = std::make_unique<skern::SimClock>();
    network_ = std::make_unique<skern::Network>(*clock_, opts_.seed);
    network_->set_delay(0);
    client_ = skern::MakeStandardModularStack(*clock_, *network_, kClientIp);
    server_ = skern::MakeStandardModularStack(*clock_, *network_, kServerIp);
    if (opts_.traced) {
      client_ = std::make_unique<TracedSocketLayer>(std::move(client_));
      server_ = std::make_unique<TracedSocketLayer>(std::move(server_));
    }
    auto ls = server_->Socket(skern::kProtoTcp);
    if (!ls.ok()) {
      SetupFailed("socket", ls.error());
    }
    CheckSetup(server_->Bind(*ls, kPort), "bind");
    CheckSetup(server_->Listen(*ls), "listen");
    for (int t = 0; t < kTenants; ++t) {
      auto c = client_->Socket(skern::kProtoTcp);
      if (!c.ok()) {
        SetupFailed("socket", c.error());
      }
      CheckSetup(client_->Connect(*c, skern::NetAddr{kServerIp, kPort}), "connect");
      auto a = server_->Accept(*ls);
      if (!a.ok()) {
        SetupFailed("accept", a.error());
      }
      callers_[t].client_sock = *c;
      callers_[t].server_sock = *a;
    }
    if (opts_.fault != skern::SafeFsSemanticFault::kNone) {
      stack_->fs->SetSemanticFault(opts_.fault);
    }
  }

  void Run(int t, const std::atomic<bool>& stop, uint64_t max_ops, CallerStats& out) override {
    Caller& c = callers_[t];
    Bytes expect(kRecordBytes);
    while (!stop.load(std::memory_order_relaxed) && (max_ops == 0 || out.attempted < max_ops)) {
      KvOp op = c.gen->Next();
      uint32_t key = KeyOf(t, op.record);
      uint32_t version = op.put ? c.versions[op.record] + 1 : c.versions[op.record];
      ++out.attempted;
      Bytes reply;
      skern::Errno err = skern::Errno::kOk;
      uint64_t start = NowNs();
      {
        RootScope root(Sp::kReq, t);
        Bytes req(kHeaderBytes + (op.put ? kRecordBytes : 0), 0);
        PutU32(req.data(), kReqMagic);
        req[4] = op.put ? 1 : 0;
        PutU32(req.data() + 8, key);
        PutU32(req.data() + 12, version);
        if (op.put) {
          MakeRecord(key, version, req.data() + kHeaderBytes);
          out.user_bytes_written += kRecordBytes;
        }
        err = Code(client_->SendChain(c.client_sock, skern::BufChain::Wrap(std::move(req))));
        if (err == skern::Errno::kOk) {
          err = Serve(t, out);
        }
        if (err == skern::Errno::kOk) {
          err = RecvExact(*client_, c.client_sock, kHeaderBytes, reply, out);
        }
        if (err == skern::Errno::kOk && GetU32(reply.data()) == kReplyMagic) {
          uint32_t len = GetU32(reply.data() + 8);
          if (len > 0) {
            err = RecvExact(*client_, c.client_sock, kHeaderBytes + len, reply, out);
          }
        }
      }
      uint64_t end = NowNs();
      if (err == skern::Errno::kOk) {
        err = static_cast<skern::Errno>(GetU32(reply.data() + 4));
      }
      if (err != skern::Errno::kOk) {
        ++out.failed;
        failures_.Add(std::string(op.put ? "PUT " : "GET ") + FilePath(FileOf(t, op.record)) +
                      " offset " + std::to_string((key % kRecordsPerFile) * kRecordBytes) +
                      ": " + skern::ErrnoName(err));
        continue;
      }
      if (op.put) {
        c.versions[op.record] = version;
        out.RecordOk(start, end);
        continue;
      }
      MakeRecord(key, version, expect.data());
      ByteView got = reply.size() > kHeaderBytes
                         ? ByteView(reply.data() + kHeaderBytes, reply.size() - kHeaderBytes)
                         : ByteView();
      int64_t diff = FirstDiff(got, ByteView(expect));
      if (diff >= 0) {
        ++out.failed;
        uint32_t got_version = got.size() >= 8 ? GetU32(got.data() + 4) : 0;
        failures_.Add("GET " + FilePath(FileOf(t, op.record)) + " offset " +
                      std::to_string((key % kRecordsPerFile) * kRecordBytes) + ": record differs at byte " +
                      std::to_string(diff) + " (version " + std::to_string(got_version) +
                      ", expected " + std::to_string(version) + ")");
        continue;
      }
      out.RecordOk(start, end);
    }
  }

  Counters Snapshot() override {
    Counters out;
    SnapshotStack(*stack_, out);
    out["net.packets"] = static_cast<double>(network_->stats().sent);
    out["net.bytes_copied"] = static_cast<double>(skern::GetBufChainStats().bytes_copied);
    return out;
  }

 private:
  struct Caller {
    std::vector<skern::Fd> fds;  // tenant file j at index j
    std::unique_ptr<KvGen> gen;
    std::vector<uint32_t> versions;  // the generator-side shadow
    uint64_t puts = 0;
    skern::SocketId client_sock = -1;
    skern::SocketId server_sock = -1;
  };

  static skern::Cred TenantCred(int t) {
    return skern::Cred::User(kUidBase + static_cast<uint32_t>(t), kUidBase + static_cast<uint32_t>(t));
  }
  static skern::Errno Code(const skern::Status& st) { return st.code(); }

  // Appends to `buf` until it holds `want` bytes.
  static skern::Errno RecvExact(skern::SocketLayer& stack, skern::SocketId sock, size_t want,
                                Bytes& buf, CallerStats& out) {
    uint64_t spins = 0;
    while (buf.size() < want) {
      ++out.recv_calls;
      auto chunk = stack.RecvChain(sock, want - buf.size());
      if (!chunk.ok()) {
        if (chunk.error() != skern::Errno::kEAGAIN || ++spins > kMaxRecvSpins) {
          return chunk.error();
        }
        ++out.recv_eagain;
        std::this_thread::yield();
        continue;
      }
      if (chunk->empty()) {
        return skern::Errno::kECONNRESET;  // peer closed
      }
      size_t old = buf.size();
      buf.resize(old + chunk->size());
      chunk->CopyTo(skern::MutableByteView(buf.data() + old, chunk->size()));
    }
    return skern::Errno::kOk;
  }

  // The server handler for one request on caller t's connection.
  skern::Errno Serve(int t, CallerStats& out) {
    Caller& c = callers_[t];
    Bytes req;
    skern::Errno err = RecvExact(*server_, c.server_sock, kHeaderBytes, req, out);
    if (err != skern::Errno::kOk) {
      return err;
    }
    bool put = req[4] == 1;
    if (GetU32(req.data()) != kReqMagic) {
      return skern::Errno::kEINVAL;
    }
    if (put) {
      err = RecvExact(*server_, c.server_sock, kHeaderBytes + kRecordBytes, req, out);
      if (err != skern::Errno::kOk) {
        return err;
      }
    }
    uint32_t key = GetU32(req.data() + 8);
    uint32_t file = key / kRecordsPerFile;
    if (file >= kFiles || file % kTenants != static_cast<uint32_t>(t)) {
      return skern::Errno::kEINVAL;
    }
    skern::Fd fd = c.fds[file / kTenants];
    uint64_t offset = uint64_t{key % kRecordsPerFile} * kRecordBytes;
    Bytes reply(kHeaderBytes, 0);
    PutU32(reply.data(), kReplyMagic);
    skern::Errno status = skern::Errno::kOk;
    {
      skern::ScopedCred cred(TenantCred(t));
      if (put) {
        ByteView record(req.data() + kHeaderBytes, kRecordBytes);
        status = Timed(Sp::kVfsPwrite, [&] { return vfs().Pwrite(fd, offset, record); }).code();
        if (status == skern::Errno::kOk && ++c.puts % kFsyncEveryPuts == 0) {
          status = Timed(Sp::kVfsFsync, [&] { return vfs().Fsync(fd); }).code();
        }
      } else {
        auto data = Timed(Sp::kVfsPread, [&] { return vfs().Pread(fd, offset, kRecordBytes); });
        if (data.ok()) {
          PutU32(reply.data() + 8, static_cast<uint32_t>(data->size()));
          skern::AppendBytes(reply, ByteView(*data));
        } else {
          status = data.error();
        }
      }
    }
    PutU32(reply.data() + 4, static_cast<uint32_t>(status));
    return Code(server_->SendChain(c.server_sock, skern::BufChain::Wrap(std::move(reply))));
  }

  WorkloadOptions opts_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<skern::SimClock> clock_;
  std::unique_ptr<skern::Network> network_;
  std::unique_ptr<skern::SocketLayer> client_;
  std::unique_ptr<skern::SocketLayer> server_;
  Caller callers_[kTenants];
};

}  // namespace

std::unique_ptr<Workload> MakeKvRpc(const WorkloadOptions& opts) {
  return std::make_unique<KvRpc>(opts);
}

uint64_t KvRpcStreamDigest(uint64_t seed, uint64_t n) {
  uint64_t h = 0;
  for (int t = 0; t < kTenants; ++t) {
    KvGen gen(seed, t);
    for (uint64_t i = 0; i < n; ++i) {
      KvOp op = gen.Next();
      h = Mix64(h ^ (uint64_t{op.record} << 1 | (op.put ? 1 : 0)));
    }
  }
  return h;
}

}  // namespace perfbench
