// perfbench_loadgen — one benchmark run: one workload, one seed, against
// fresh daemons.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                     --bindir DIR --out DIR --tmp DIR
//
// The run sets up kGenerations fresh clusters one after another (boot,
// placement, dataset load, warm-up) and measures S / kGenerations seconds
// on each: first closed loop (ops_per_s), then open loop (latencies). Load
// comes from this one process: kThreads workload threads, one TcpTransport
// (one connection to the master and to each worker), and the default
// RpcSpClient configuration.
//
// --trace 1 repeats the run with spans around every call the load generator
// makes into the system, probe RPCs interleaved with the workload, and /proc
// accounting, and reports the per-layer metrics instead of the end-to-end
// ones. Human-readable lines go to stdout first; the last stdout line is
// the result JSON. Spans and the result are also written under --out.
#include <signal.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/stats.h"
#include "erasure/rs_code.h"
#include "proc.h"
#include "rpc/cache_service.h"
#include "rpc/tcp_transport.h"
#include "spans.h"
#include "workload.h"

using namespace spcache;
using namespace spcache::rpc;
using namespace perfbench;

namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kWorkers = perfbench::Cluster::kWorkers;
constexpr int kGenerations = 5;
// In the traced run every kProbeEvery-th open-loop operation of a thread is
// preceded by one probe RPC, and every kKernelEvery-th read is replayed
// through the reassembly kernels.
constexpr std::size_t kProbeEvery = 8;
constexpr std::size_t kKernelEvery = 4;
constexpr double kClosedWindowS = 0.1;
// Share of each generation's measuring time that goes to the open loop:
// its write percentiles need more samples than the closed loop's rate.
constexpr double kOpenShare = 0.6;
constexpr NodeId kReaderNode = kFirstClientNode;
constexpr NodeId kWriterNode = kFirstClientNode + 1;
constexpr NodeId kProbeNode = kFirstClientNode + 2;

// Set by SIGINT/SIGTERM and polled by every workload thread, so it must be
// both async-signal-safe and free of data races: a lock-free atomic is both.
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);
void on_signal(int) { g_stop.store(true); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bindir;
  std::string out;
  std::string tmp;
};

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// The q-quantile as the rest of the repository computes it (common/stats);
// 0 for an empty sample.
double quantile(const std::vector<double>& values, double q) {
  Sample sample;
  sample.reserve(values.size());
  for (const double v : values) sample.add(v);
  return sample.percentile(q);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// One latency: when the request was due (steady_clock ns; send time for
// closed-loop writes), and how long after that it completed or failed.
struct Latency {
  std::int64_t due_ns;
  double ms;
};

// A statistic over the windows the host left alone, and how many of how
// many windows it used.
struct Quiet {
  double value = 0.0;
  std::size_t kept = 0;
  std::size_t total = 0;
};

// A shared host takes CPU back from the VM in bursts: with the benchmark
// keeping four vCPUs busy, /proc/stat showed 1% to 26% of a run's CPU time
// stolen. Throughput falls with a window's steal and a stolen burst stalls
// every request in flight, so unfiltered windows track the neighbours
// rather than the system. Only windows (closed-loop windows, open-loop
// windows, set-ups) with at most kQuietSteal of the CPU stolen count; when
// fewer than a quarter qualify, the quarter with the least steal does.
constexpr double kQuietSteal = 0.02;

// Which windows count, by the steal in each.
std::vector<bool> quiet_windows(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  const auto quiet = static_cast<std::size_t>(
      std::count_if(steal.begin(), steal.end(), [](double s) { return s <= kQuietSteal; }));
  const std::size_t keep = std::min(steal.size(), std::max(quiet, (steal.size() + 3) / 4));
  std::vector<bool> kept(steal.size(), false);
  for (std::size_t i = 0; i < keep; ++i) kept[order[i]] = true;
  return kept;
}

Quiet quiet_median(const std::vector<double>& values, const std::vector<double>& steal) {
  const std::vector<bool> quiet = quiet_windows(steal);
  std::vector<double> kept;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (quiet[i]) kept.push_back(values[i]);
  }
  return Quiet{quantile(kept, 0.5), kept.size(), values.size()};
}

// Open-loop requests (and set-up writes) are judged by the kOpenWindowNs
// window their due time falls in, and count when that window was quiet.
// Writes are sparse (100 overwrite-mix writes span about 0.5 s), and a
// host stealing in bursts leaves few such spans quiet: re-scored from
// their recorded latencies, ten overwrite-mix runs on a host stealing up to
// 11% spread 0.38 on write_p99_ms when judged per chunk of 100 writes and
// 0.15 when judged per 50 ms window; read spreads stayed the same.
constexpr std::int64_t kOpenWindowNs = 50'000'000;

// The q-quantile of each chunk of kChunk consecutive requests (in due-time
// order) due in quiet windows, then the median over the chunks. Below two
// chunks' worth the quantile is taken over the pooled quiet requests.
Quiet chunked_percentile(std::vector<Latency> v, double q, const StealMonitor& monitor) {
  constexpr std::size_t kChunk = 100;
  std::sort(v.begin(), v.end(),
            [](const Latency& a, const Latency& b) { return a.due_ns < b.due_ns; });
  std::vector<double> steal;  // per window that holds a request, in time order
  std::vector<std::size_t> window_of(v.size());
  std::int64_t last = -1;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::int64_t w = v[i].due_ns / kOpenWindowNs;
    if (w != last) {
      steal.push_back(monitor.steal(w * kOpenWindowNs, (w + 1) * kOpenWindowNs));
      last = w;
    }
    window_of[i] = steal.size() - 1;
  }
  const std::vector<bool> quiet = quiet_windows(steal);
  std::vector<double> ms;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (quiet[window_of[i]]) ms.push_back(v[i].ms);
  }
  const auto kept = static_cast<std::size_t>(std::count(quiet.begin(), quiet.end(), true));
  if (ms.size() < 2 * kChunk) return Quiet{quantile(ms, q), kept, steal.size()};
  std::vector<double> per_chunk;
  const std::size_t chunks = ms.size() / kChunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto first = ms.begin() + static_cast<std::ptrdiff_t>(c * kChunk);
    const auto end = c + 1 == chunks ? ms.end() : first + kChunk;
    per_chunk.push_back(quantile(std::vector<double>(first, end), q));
  }
  return Quiet{quantile(per_chunk, 0.5), kept, steal.size()};
}

// Per-thread operation outcomes; merged after each phase.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  // exceptions, timeouts and wrong bytes
  std::uint64_t wrong = 0;   // bytes that are no version of the file
  std::uint64_t stale = 0;   // older than a write completed before the read began
  std::uint64_t stale_shared = 0;  // of those, served by a single-flight leader
  std::uint64_t reads = 0;
  std::uint64_t shared = 0;
  std::uint64_t retries = 0;
  std::uint64_t repeat_passes = 0;
  double payload_bytes = 0.0;
  double verify_cpu_s = 0.0;
  std::vector<Latency> read_ms;
  std::vector<Latency> write_ms;
  std::vector<double> lag_ms;

  void add(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    wrong += o.wrong;
    stale += o.stale;
    stale_shared += o.stale_shared;
    reads += o.reads;
    shared += o.shared;
    retries += o.retries;
    repeat_passes += o.repeat_passes;
    payload_bytes += o.payload_bytes;
    verify_cpu_s += o.verify_cpu_s;
    read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
    write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
  }
};

// Versions written per file; `committed` moves only after write() returned.
// On a workload that writes, each file has a reader-writer lock: an
// overwrite holds it exclusively and a read shares it, so reads of a file
// never overlap an overwrite of it (concurrent reads still share one
// single-flight fetch). RpcSpClient::write PUTs the pieces at the new epoch
// before it REGISTERs that epoch, so a read that overlaps the write draws
// kWrongEpoch on every pass until the REGISTER lands, and can give up.
struct VersionBook {
  explicit VersionBook(std::size_t files) : started(files), committed(files), locks(files) {}
  void reset() {
    for (auto& v : started) v.store(0);
    for (auto& v : committed) v.store(0);
  }

  std::vector<std::atomic<std::uint32_t>> started;
  std::vector<std::atomic<std::uint32_t>> committed;
  std::vector<std::shared_mutex> locks;
};

// One cluster generation and the client side connected to it. Members are
// destroyed in reverse order: clients, bus, transport, then the daemons.
struct Generation {
  Generation(const Args& args, int generation)
      : cluster(args.bindir, args.tmp, generation) {
    transport.add_peer(kMasterNode, "127.0.0.1", cluster.ports().master);
    std::vector<NodeId> worker_of_server;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      const NodeId node = kFirstWorkerNode + static_cast<NodeId>(w);
      transport.add_peer(node, "127.0.0.1", cluster.ports().workers[w]);
      worker_of_server.push_back(node);
    }
    transport.start();
    bus = std::make_unique<Bus>(transport);
    reader = std::make_unique<RpcSpClient>(*bus, kReaderNode, kMasterNode, worker_of_server);
    writer = std::make_unique<RpcSpClient>(*bus, kWriterNode, kMasterNode, worker_of_server);
    probe = std::make_unique<RpcNode>(*bus, kProbeNode, "perfbench-probe");
    probe->start();
  }
  ~Generation() {
    probe.reset();
    reader.reset();
    writer.reset();
    bus.reset();
    transport.shutdown();
  }
  Generation(const Generation&) = delete;
  Generation& operator=(const Generation&) = delete;

  perfbench::Cluster cluster;
  TcpTransport transport;
  std::unique_ptr<Bus> bus;
  std::unique_ptr<RpcSpClient> reader;
  std::unique_ptr<RpcSpClient> writer;
  std::unique_ptr<RpcNode> probe;
};

std::uint64_t client_transport_errors(const TcpTransport::Counters& c) {
  return c.framing_errors + c.frames_dropped + c.backpressure_rejects + c.circuit_fast_fails +
         c.reconnects;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Runner {
 public:
  Runner(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        inputs_(make_inputs(spec, args.seed, args.seconds * kOpenShare)),
        book_(spec.files),
        logs_(kThreads + 1) {
    for (std::size_t t = 0; t <= kThreads; ++t) logs_[t] = SpanLog(t);
    logs_[kThreads].enabled = args.trace;  // the main thread's set-up spans
    placement_ = place(spec_, inputs_);
    dataset_.reserve(spec.files);
    for (FileId f = 0; f < spec.files; ++f) {
      dataset_.push_back(base_content(args.seed, f, inputs_.sizes[f]));
    }
    probe_file_ = static_cast<FileId>(spec.files) + 1;  // outside the catalog
    size_probe_payloads();
  }

  int run();

 private:
  SpanLog& main_log() { return logs_[kThreads]; }

  void size_probe_payloads();
  void setup(int generation);
  void load();
  void warm();
  void closed_phase(double seconds, bool traced, std::uint64_t stream);
  void open_phase(std::size_t first, std::size_t last, double window_start_s, bool traced);
  bool execute(const Op& op, std::size_t t, Tally& tally, bool replay_kernels);
  bool read_op(FileId f, std::size_t t, Tally& tally, bool replay_kernels);
  bool write_op(FileId f, std::uint32_t version, std::size_t t, Tally& tally);
  bool run_probe(std::size_t t, std::size_t n, FileId file);
  void replay_reassembly(const std::vector<std::uint8_t>& bytes, FileId f, std::size_t t,
                         std::uint64_t request, std::uint64_t parent);
  void run_threads(const std::function<void(std::size_t)>& body);
  void sample_window_start();
  void sample_window_end(bool process_costs, double ops);
  // Read-only workloads write only while loading the dataset: their write
  // latencies are those of the set-up writes, timed from when each was sent.
  const std::vector<Latency>& write_samples() const {
    return spec_.write_share > 0.0 ? open_.write_ms : load_write_ms_;
  }
  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer() const;
  void write_spans(const std::string& path) const;
  // Failure messages by operation kind, for the run's report.
  void note_error(const std::string& kind, const std::string& what) {
    std::lock_guard lock(errors_mu_);
    ++errors_[kind + ": " + what];
  }
  std::uint64_t next_request(std::size_t t) {
    return (static_cast<std::uint64_t>(t) << 48) | ++requests_[t];
  }

  const Args& args_;
  const WorkloadSpec& spec_;
  Inputs inputs_;
  Placement placement_;
  std::vector<std::vector<std::uint8_t>> dataset_;
  VersionBook book_;
  std::vector<SpanLog> logs_;
  std::array<std::uint64_t, kThreads + 1> requests_{};
  std::array<std::vector<std::uint8_t>, kThreads> write_buf_;
  std::array<std::vector<std::uint8_t>, kThreads> kernel_buf_;
  std::unique_ptr<Generation> gen_;
  StealMonitor steal_;

  FileId probe_file_ = 0;
  std::vector<std::uint8_t> probe_piece_;  // popularity-weighted median piece
  std::vector<std::uint8_t> probe_file_bytes_;  // popularity-weighted median file
  std::atomic<std::uint64_t> probe_token_{1};
  std::atomic<std::uint64_t> probe_failures_{0};
  std::mutex errors_mu_;
  std::map<std::string, std::uint64_t> errors_;

  // Whole-run accumulators.
  Tally measured_;             // closed + open phases
  Tally open_;                 // open loop only (latencies)
  Tally other_;                // load and warm-up operations
  std::vector<Latency> load_write_ms_;
  // ops/s per closed-loop window, and the share of CPU the host stole in it
  std::vector<double> closed_rates_, closed_steal_, traced_rates_, traced_steal_;
  std::vector<double> setup_s_, boot_s_, place_s_, load_s_, warm_s_, rss_mb_;
  std::vector<double> setup_steal_;  // share of CPU stolen during each set-up
  bool placement_stable_ = true;
  bool clusters_clean_ = true;
  double daemon_framing_errors_ = 0.0;
  double client_errors_ = 0.0;
  double wqueue_peak_ = 0.0;
  double server_writev_calls_ = 0.0, server_frames_sent_ = 0.0;
  std::uint64_t cache_hits_ = 0, cache_misses_ = 0, cache_invalidations_ = 0;
  std::atomic<std::uint64_t> kernel_mismatches_{0};
  std::array<double, kThreads> kernel_bytes_{};
  // Per-worker bytes sent during measured phases (Eq. 15 input).
  std::vector<double> worker_bytes_ = std::vector<double>(kWorkers, 0.0);
  // Process costs over the untraced closed-loop windows of the traced run.
  double cost_ops_ = 0.0, cost_verify_cpu_s_ = 0.0, cost_payload_ = 0.0;
  ProcDelta cost_client_{}, cost_master_{};
  std::array<ProcDelta, kWorkers> cost_worker_{};
  double cost_client_writev_ = 0.0, cost_client_wire_ = 0.0, cost_server_syscw_ = 0.0;

  // Window bookkeeping.
  ProcSample win_self_{};
  std::vector<ProcSample> win_daemons_;
  TcpTransport::Counters win_transport_{};
  std::uint64_t win_hits_ = 0, win_misses_ = 0, win_invalidations_ = 0;
  double win_verify_cpu_s_ = 0.0, win_payload_ = 0.0;
};

void Runner::size_probe_payloads() {
  // Popularity-weighted medians, so probes move the bytes a typical
  // operation of this workload moves.
  std::vector<std::pair<double, double>> piece;  // (bytes, weight)
  std::vector<std::pair<double, double>> file;
  for (FileId f = 0; f < spec_.files; ++f) {
    const double p = inputs_.catalog.popularity(f);
    const auto k = placement_.servers[f].size();
    piece.emplace_back(static_cast<double>(inputs_.sizes[f] / k), p);
    file.emplace_back(static_cast<double>(inputs_.sizes[f]), p);
  }
  const auto weighted_median = [](std::vector<std::pair<double, double>> v) {
    std::sort(v.begin(), v.end());
    double acc = 0.0;
    for (const auto& [x, w] : v) {
      acc += w;
      if (acc >= 0.5) return x;
    }
    return v.back().first;
  };
  probe_piece_ = base_content(args_.seed ^ 0x9B0Eull, probe_file_,
                              static_cast<Bytes>(weighted_median(piece)));
  probe_file_bytes_ = base_content(args_.seed ^ 0x9B0Full, probe_file_,
                                   static_cast<Bytes>(weighted_median(file)));
}

void Runner::run_threads(const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errors(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      // Sleeps in the open loop wake on time, not up to 50 us late.
      ::prctl(PR_SET_TIMERSLACK, 1UL);
      try {
        body(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  if (g_stop) throw std::runtime_error("interrupted");
}

bool Runner::write_op(FileId f, std::uint32_t version, std::size_t t, Tally& tally) {
  SpanLog& log = logs_[t];
  const std::uint64_t request = next_request(t);
  ScopedSpan root(log, "op.write", request);
  ++tally.attempted;
  try {
    versioned_content(dataset_[f], f, version, write_buf_[t]);
    ScopedSpan span(log, "client.write", request, root.id());
    gen_->writer->write(f, write_buf_[t], placement_.servers[f]);
  } catch (const std::exception& e) {
    ++tally.failed;
    note_error("write", e.what());
    return false;
  }
  ++tally.ok;
  tally.payload_bytes += static_cast<double>(dataset_[f].size());
  return true;
}

bool Runner::read_op(FileId f, std::size_t t, Tally& tally, bool replay_kernels) {
  SpanLog& log = logs_[t];
  const std::uint64_t request = next_request(t);
  ScopedSpan root(log, "op.read", request);
  ++tally.attempted;
  ++tally.reads;
  const std::uint32_t floor = book_.committed[f].load(std::memory_order_acquire);
  RpcReadStats stats;
  try {
    ScopedSpan span(log, "client.read_with_stats", request, root.id());
    stats = gen_->reader->read_with_stats(f);
  } catch (const std::exception& e) {
    ++tally.failed;
    note_error("read", e.what());
    return false;
  }
  tally.shared += stats.shared ? 1 : 0;
  tally.retries += stats.retries;
  tally.repeat_passes += stats.passes > 1 ? 1 : 0;
  std::int64_t version = -1;
  {
    ScopedSpan span(log, "bench.verify", request, root.id());
    const double c0 = thread_cpu_s();
    version = decode_version(stats.bytes, dataset_[f], f);
    tally.verify_cpu_s += thread_cpu_s() - c0;
  }
  if (version < 0 || version > book_.started[f].load(std::memory_order_acquire)) {
    ++tally.failed;
    ++tally.wrong;
    note_error("read", "bytes are no version of the file");
    return false;
  }
  if (version < floor) {
    ++tally.stale;
    tally.stale_shared += stats.shared ? 1 : 0;
  }
  if (replay_kernels) replay_reassembly(stats.bytes, f, t, request, root.id());
  tally.payload_bytes += static_cast<double>(stats.bytes.size());
  ++tally.ok;
  return true;
}

bool Runner::execute(const Op& op, std::size_t t, Tally& tally, bool replay_kernels) {
  if (!op.write) {
    if (spec_.write_share == 0.0) return read_op(op.file, t, tally, replay_kernels);
    std::shared_lock lock(book_.locks[op.file]);
    return read_op(op.file, t, tally, replay_kernels);
  }
  std::unique_lock lock(book_.locks[op.file]);
  const std::uint32_t version = book_.started[op.file].load() + 1;
  book_.started[op.file].store(version, std::memory_order_release);
  const bool ok = write_op(op.file, version, t, tally);
  if (ok) book_.committed[op.file].store(version, std::memory_order_release);
  return ok;
}

// The client's reassembly kernels on this read's bytes: one crc32_copy per
// piece at the write's split points, stitched with a fresh Crc32Combiner,
// exactly as RpcSpClient does per read.
void Runner::replay_reassembly(const std::vector<std::uint8_t>& bytes, FileId f, std::size_t t,
                               std::uint64_t request, std::uint64_t parent) {
  const std::size_t k = placement_.servers[f].size();
  std::array<std::span<const std::uint8_t>, kWorkers> views;
  split_plain_views(bytes, k, std::span(views.data(), k));
  auto& scratch = kernel_buf_[t];
  scratch.resize(bytes.size());
  std::uint32_t whole = 0;
  {
    ScopedSpan span(logs_[t], "kernels.reassembly", request, parent);
    Crc32Combiner combiner;
    std::size_t offset = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint32_t crc =
          crc32_copy(std::span(scratch.data() + offset, views[i].size()), views[i]);
      whole = i == 0 ? crc : combiner.combine(whole, crc, views[i].size());
      offset += views[i].size();
    }
  }
  kernel_bytes_[t] += static_cast<double>(bytes.size());
  if (whole != crc32(bytes) || scratch != bytes) kernel_mismatches_.fetch_add(1);
}

bool Runner::run_probe(std::size_t t, std::size_t n, FileId file) {
  SpanLog& log = logs_[t];
  const std::uint64_t request = next_request(t);
  const auto worker = static_cast<std::uint32_t>(n % kWorkers);
  RpcNode& node = *gen_->probe;
  BufferWriter w;
  Reply reply;
  switch (n % 5) {
    case 0: {
      const std::uint64_t token = probe_token_.fetch_add(1);
      w.u64(token);
      ScopedSpan span(log, "probe.ping", request);
      reply = node.call_sync(kFirstWorkerNode + worker, kPing, w.take());
      if (reply.ok() && BufferReader(reply.payload).u64() != token) reply.status = Status::kError;
      break;
    }
    case 1: {
      w.u32(file);
      ScopedSpan span(log, "probe.lookup", request);
      reply = node.call_sync(kMasterNode, kLookupFile, w.take());
      break;
    }
    case 2: {
      // The file's first piece, from the worker holding it; the newest
      // epoch never draws kWrongEpoch.
      const auto& servers = placement_.servers[file];
      w.u32(file);
      w.u64(std::numeric_limits<std::uint64_t>::max());
      w.u32(1);
      w.u32(0);
      ScopedSpan span(log, "probe.get_multi", request);
      reply = node.call_sync(kFirstWorkerNode + servers[0], kGetBlockMulti, w.take());
      break;
    }
    case 3: {
      w.u32(probe_file_ + static_cast<FileId>(t));
      w.u32(0);
      w.bytes(probe_piece_);
      w.u64(1);
      ScopedSpan span(log, "probe.put_block", request);
      reply = node.call_sync(kFirstWorkerNode + worker, kPutBlock, w.take());
      break;
    }
    default: {
      w.u32(probe_file_ + static_cast<FileId>(t));
      w.bytes(probe_file_bytes_);
      ScopedSpan span(log, "probe.put_stable", request);
      reply = node.call_sync(kMasterNode, kPutStable, w.take());
      break;
    }
  }
  if (!reply.ok()) {
    probe_failures_.fetch_add(1);
    note_error("probe", reply.error_text());
  }
  return reply.ok();
}

void Runner::load() {
  std::vector<Tally> tallies(kThreads);
  std::vector<std::vector<Latency>> latencies(kThreads);
  run_threads([&](std::size_t t) {
    for (std::size_t pass = 0; pass < spec_.load_passes; ++pass) {
      for (FileId f = static_cast<FileId>(t); f < spec_.files && !g_stop;
           f += static_cast<FileId>(kThreads)) {
        const auto t0 = now_ns();
        write_op(f, 0, t, tallies[t]);
        latencies[t].push_back(Latency{t0, static_cast<double>(now_ns() - t0) * 1e-6});
      }
    }
  });
  for (std::size_t t = 0; t < kThreads; ++t) {
    other_.add(tallies[t]);
    load_write_ms_.insert(load_write_ms_.end(), latencies[t].begin(), latencies[t].end());
  }
}

void Runner::warm() {
  if (spec_.prefetch_layouts) {
    std::vector<FileId> ids(spec_.files);
    for (FileId f = 0; f < spec_.files; ++f) ids[f] = f;
    ScopedSpan span(main_log(), "client.prefetch_layouts", 0);
    gen_->reader->prefetch_layouts(ids);
  }
  std::vector<Tally> tallies(kThreads);
  std::atomic<std::size_t> started{0};
  run_threads([&](std::size_t t) {
    OpStream stream(inputs_, spec_.write_share, args_.seed, 0xA000 + t);
    while (started.fetch_add(1) < spec_.warm_ops && !g_stop) {
      execute(stream.next(), t, tallies[t], false);
    }
  });
  for (const auto& t : tallies) other_.add(t);
}

void Runner::setup(int generation) {
  book_.reset();
  const auto t0 = now_ns();
  {
    ScopedSpan span(main_log(), "setup.boot", 0);
    gen_ = std::make_unique<Generation>(args_, generation);
  }
  const auto t1 = now_ns();
  {
    ScopedSpan span(main_log(), "setup.place", 0);
    const Placement again = place(spec_, inputs_);
    placement_stable_ = placement_stable_ && again.digest == placement_.digest;
  }
  const auto t2 = now_ns();
  {
    ScopedSpan span(main_log(), "setup.load", 0);
    load();
  }
  const auto t3 = now_ns();
  {
    ScopedSpan span(main_log(), "setup.warm", 0);
    warm();
  }
  const auto t4 = now_ns();
  boot_s_.push_back(static_cast<double>(t1 - t0) * 1e-9);
  place_s_.push_back(static_cast<double>(t2 - t1) * 1e-9);
  load_s_.push_back(static_cast<double>(t3 - t2) * 1e-9);
  warm_s_.push_back(static_cast<double>(t4 - t3) * 1e-9);
  setup_s_.push_back(static_cast<double>(t4 - t0) * 1e-9);
  setup_steal_.push_back(steal_.steal(t0, t4));
}

void Runner::sample_window_start() {
  win_self_ = sample_self();
  win_daemons_ = gen_->cluster.sample();
  win_transport_ = gen_->transport.counters();
  const auto& cache = gen_->reader->layout_cache();
  win_hits_ = cache.hits();
  win_misses_ = cache.misses();
  win_invalidations_ = cache.invalidations();
  win_verify_cpu_s_ = measured_.verify_cpu_s;
  win_payload_ = measured_.payload_bytes;
}

// Closes a measured window: worker bytes and layout-cache counts always;
// with `process_costs`, also the per-op process costs of this window.
void Runner::sample_window_end(bool process_costs, double ops) {
  const ProcSample self = sample_self();
  const auto daemons = gen_->cluster.sample();
  const auto transport = gen_->transport.counters();
  const auto& cache = gen_->reader->layout_cache();
  cache_hits_ += cache.hits() - win_hits_;
  cache_misses_ += cache.misses() - win_misses_;
  cache_invalidations_ += cache.invalidations() - win_invalidations_;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    worker_bytes_[w] += (daemons[w + 1] - win_daemons_[w + 1]).wchar;
  }
  if (!process_costs) return;
  cost_ops_ += ops;
  cost_verify_cpu_s_ += measured_.verify_cpu_s - win_verify_cpu_s_;
  cost_payload_ += measured_.payload_bytes - win_payload_;
  const ProcDelta client = self - win_self_;
  cost_client_.cpu_s += client.cpu_s;
  cost_client_.ctx += client.ctx;
  const ProcDelta master = daemons[0] - win_daemons_[0];
  cost_master_.cpu_s += master.cpu_s;
  cost_master_.ctx += master.ctx;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    const ProcDelta d = daemons[w + 1] - win_daemons_[w + 1];
    cost_worker_[w].cpu_s += d.cpu_s;
    cost_worker_[w].ctx += d.ctx;
    cost_server_syscw_ += d.syscw;
  }
  cost_client_writev_ += static_cast<double>(transport.writev_calls - win_transport_.writev_calls);
  cost_client_wire_ += static_cast<double>((transport.bytes_tx + transport.bytes_rx) -
                                           (win_transport_.bytes_tx + win_transport_.bytes_rx));
}

void Runner::closed_phase(double seconds, bool traced, std::uint64_t stream) {
  // Completions are counted per kClosedWindowS window; ops_per_s is the
  // median window, so a stall of the shared machine costs one window.
  const auto windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kClosedWindowS));
  const double window_s = seconds / static_cast<double>(windows);
  std::vector<Tally> tallies(kThreads);
  std::vector<std::vector<double>> done(kThreads, std::vector<double>(windows, 0.0));
  for (std::size_t t = 0; t < kThreads; ++t) logs_[t].enabled = traced;
  sample_window_start();
  const auto start = now_ns();
  const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
  run_threads([&](std::size_t t) {
    OpStream ops(inputs_, spec_.write_share, args_.seed, stream + t);
    for (auto now = now_ns(); now < end && !g_stop; now = now_ns()) {
      if (!execute(ops.next(), t, tallies[t], false)) continue;
      const double since_s = static_cast<double>(now_ns() - start) * 1e-9;
      const auto w = static_cast<std::size_t>(since_s / window_s);
      if (w < windows) done[t][w] += 1.0;
    }
  });
  double ok = 0.0;
  for (const auto& t : tallies) {
    ok += static_cast<double>(t.ok);
    measured_.add(t);
  }
  for (std::size_t w = 0; w < windows; ++w) {
    double n = 0.0;
    for (const auto& d : done) n += d[w];
    const auto from = start + static_cast<std::int64_t>(static_cast<double>(w) * window_s * 1e9);
    const auto to = start + static_cast<std::int64_t>(static_cast<double>(w + 1) * window_s * 1e9);
    (traced ? traced_rates_ : closed_rates_).push_back(n / window_s);
    (traced ? traced_steal_ : closed_steal_).push_back(steal_.steal(from, to));
  }
  sample_window_end(args_.trace && !traced, ok);
  for (std::size_t t = 0; t < kThreads; ++t) logs_[t].enabled = false;
}

void Runner::open_phase(std::size_t first, std::size_t last, double window_start_s,
                        bool traced) {
  std::vector<Tally> tallies(kThreads);
  std::atomic<std::size_t> next{first};
  for (std::size_t t = 0; t < kThreads; ++t) logs_[t].enabled = traced;
  sample_window_start();
  const auto base = now_ns() + 1'000'000;
  run_threads([&](std::size_t t) {
    std::size_t sent = 0;
    auto& tally = tallies[t];
    for (std::size_t i = next.fetch_add(1); i < last && !g_stop; i = next.fetch_add(1)) {
      const Op& op = inputs_.schedule[i];
      const auto due = base + static_cast<std::int64_t>((op.due_s - window_start_s) * 1e9);
      const auto wait = due - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      tally.lag_ms.push_back(static_cast<double>(now_ns() - due) * 1e-6);
      ++sent;
      if (traced && sent % kProbeEvery == 0) {
        ++tally.attempted;
        if (!run_probe(t, sent / kProbeEvery, op.file)) ++tally.failed;
      }
      execute(op, t, tally, traced && !op.write && sent % kKernelEvery == 0);
      // Failed operations count too, at the time the caller waited.
      const double ms = static_cast<double>(now_ns() - due) * 1e-6;
      (op.write ? tally.write_ms : tally.read_ms).push_back(Latency{due, ms});
    }
  });
  for (const auto& t : tallies) {
    measured_.add(t);
    open_.add(t);
  }
  sample_window_end(false, 0.0);
  for (std::size_t t = 0; t < kThreads; ++t) logs_[t].enabled = false;
}

std::vector<Metric> Runner::end_to_end() const {
  std::vector<Metric> m;
  m.push_back({"ops_per_s", quiet_median(closed_rates_, closed_steal_).value, "1/s"});
  m.push_back({"read_p50_ms", chunked_percentile(open_.read_ms, 0.50, steal_).value, "ms"});
  m.push_back({"read_p99_ms", chunked_percentile(open_.read_ms, 0.99, steal_).value, "ms"});
  const auto& writes = write_samples();
  m.push_back({"write_p50_ms", chunked_percentile(writes, 0.50, steal_).value, "ms"});
  m.push_back({"write_p99_ms", chunked_percentile(writes, 0.99, steal_).value, "ms"});
  // 1 + Eq. 15's eta. Eta itself is a small difference (about 0.01 here),
  // so its run-to-run spread relative to its own size is large; max/mean
  // carries the same information on a scale where a bound means something.
  m.push_back({"load_max_over_mean", 1.0 + imbalance_factor(worker_bytes_), "ratio"});
  m.push_back({"setup_s", quiet_median(setup_s_, setup_steal_).value, "s"});
  m.push_back({"cluster_peak_rss_mb", quantile(rss_mb_, 0.5), "MB"});
  return m;
}

std::vector<Metric> Runner::per_layer() const {
  // Span durations by name, in microseconds.
  std::map<std::string, std::vector<double>> us;
  for (const auto& log : logs_) {
    for (const auto& s : log.spans()) {
      us[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  const auto p = [&](const char* name, double q) {
    const auto it = us.find(name);
    return it == us.end() ? 0.0 : quantile(it->second, q);
  };
  const double ops = cost_ops_;
  const double reads = static_cast<double>(measured_.reads);
  const double hit_ratio =
      ratio(static_cast<double>(cache_hits_), static_cast<double>(cache_hits_ + cache_misses_));
  double busy_max = 0.0, busy_sum = 0.0, worker_cpu = 0.0, worker_ctx = 0.0;
  for (const auto& w : cost_worker_) {
    busy_max = std::max(busy_max, w.cpu_s);
    busy_sum += w.cpu_s;
    worker_cpu += w.cpu_s;
    worker_ctx += w.ctx;
  }
  double kernel_us = 0.0;
  double kernel_bytes = 0.0;
  for (double b : kernel_bytes_) kernel_bytes += b;
  const auto kit = us.find("kernels.reassembly");
  if (kit != us.end()) {
    for (double x : kit->second) kernel_us += x;
  }
  const double read_p50_us = chunked_percentile(open_.read_ms, 0.5, steal_).value * 1e3;
  std::vector<Metric> m;
  m.push_back({"client.cpu_us_per_op", ratio(cost_client_.cpu_s - cost_verify_cpu_s_, ops) * 1e6,
               "us"});
  m.push_back({"client.singleflight_ratio",
               ratio(static_cast<double>(measured_.shared), reads), "ratio"});
  m.push_back({"client.ctx_switches_per_op", ratio(cost_client_.ctx, ops), "count"});
  m.push_back({"client.retries_per_op", ratio(static_cast<double>(measured_.retries), reads),
               "count"});
  m.push_back({"client.repeat_pass_ratio",
               ratio(static_cast<double>(measured_.repeat_passes), reads), "ratio"});
  m.push_back({"client.stale_reads", static_cast<double>(measured_.stale + other_.stale),
               "count"});
  m.push_back({"layout_cache.hit_ratio", hit_ratio, "ratio"});
  m.push_back({"layout_cache.invalidations_per_op",
               ratio(static_cast<double>(cache_invalidations_), reads), "count"});
  m.push_back({"master.lookup_us_p50", p("probe.lookup", 0.5), "us"});
  m.push_back({"master.lookup_us_p99", p("probe.lookup", 0.99), "us"});
  m.push_back({"master.ctx_switches_per_op", ratio(cost_master_.ctx, ops), "count"});
  m.push_back({"master.cpu_us_per_op", ratio(cost_master_.cpu_s, ops) * 1e6, "us"});
  m.push_back({"master.put_stable_us_p50", p("probe.put_stable", 0.5), "us"});
  m.push_back({"transport.rtt_us_p50", p("probe.ping", 0.5), "us"});
  m.push_back({"transport.rtt_us_p99", p("probe.ping", 0.99), "us"});
  m.push_back({"transport.client_writev_per_op", ratio(cost_client_writev_, ops), "count"});
  m.push_back({"transport.wire_bytes_per_payload_byte", ratio(cost_client_wire_, cost_payload_),
               "ratio"});
  m.push_back({"transport.server_writev_per_op", ratio(cost_server_syscw_, ops), "count"});
  m.push_back({"transport.server_frames_per_writev",
               ratio(server_frames_sent_, server_writev_calls_), "ratio"});
  m.push_back({"transport.wqueue_peak_kb", wqueue_peak_ / 1024.0, "KiB"});
  m.push_back({"transport.errors", client_errors_ + daemon_framing_errors_, "count"});
  m.push_back({"worker.get_us_p50", p("probe.get_multi", 0.5), "us"});
  m.push_back({"worker.get_us_p99", p("probe.get_multi", 0.99), "us"});
  m.push_back({"worker.ctx_switches_per_op", ratio(worker_ctx, ops), "count"});
  m.push_back({"worker.cpu_us_per_op", ratio(worker_cpu, ops) * 1e6, "us"});
  m.push_back({"worker.busy_max_over_mean",
               ratio(busy_max, busy_sum / static_cast<double>(kWorkers)), "ratio"});
  m.push_back({"worker.put_us_p50", p("probe.put_block", 0.5), "us"});
  m.push_back({"kernels.reassembly_us_p50", p("kernels.reassembly", 0.5), "us"});
  m.push_back({"kernels.crc32_copy_gbps", ratio(kernel_bytes, kernel_us * 1e-6) * 8e-9, "Gbit/s"});
  double mean_k = 0.0;
  double max_k = 0.0;
  for (FileId f = 0; f < spec_.files; ++f) {
    const auto k = static_cast<double>(placement_.servers[f].size());
    mean_k += inputs_.catalog.popularity(f) * k;
    max_k = std::max(max_k, k);
  }
  m.push_back({"placement.mean_partitions", mean_k, "count"});
  m.push_back({"placement.max_partitions", max_k, "count"});
  m.push_back({"placement.alpha_search_s", quantile(place_s_, 0.5), "s"});
  m.push_back({"setup.boot_s", quantile(boot_s_, 0.5), "s"});
  m.push_back({"setup.load_s", quantile(load_s_, 0.5), "s"});
  m.push_back({"setup.warm_s", quantile(warm_s_, 0.5), "s"});
  m.push_back({"generator.lag_ms_p99", quantile(open_.lag_ms, 0.99), "ms"});
  m.push_back({"trace.overhead_ratio",
               ratio(quiet_median(traced_rates_, traced_steal_).value,
                     quiet_median(closed_rates_, closed_steal_).value),
               "ratio"});
  // The read path's layers in sequence: layout (a LOOKUP on a cache miss),
  // one GET round trip (transport + worker serve), client reassembly.
  const double attributed = (1.0 - hit_ratio) * p("probe.lookup", 0.5) +
                            p("probe.get_multi", 0.5) + p("kernels.reassembly", 0.5);
  m.push_back({"layers.unattributed_us", read_p50_us - attributed, "us"});
  return m;
}

}  // namespace

namespace {

// Shortest text that reads back as exactly `v`.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::array<char, 32> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return ec == std::errc() ? std::string(buf.data(), end) : "null";
}

void Runner::write_spans(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& log : logs_) {
    for (const auto& s : log.spans()) {
      out << "{\"name\":\"" << s.name << "\",\"request\":" << s.request << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
}

int Runner::run() {
  const auto run_start = now_ns();
  std::cout << "perfbench: workload=" << spec_.name << " seed=" << args_.seed
            << " seconds=" << args_.seconds << " trace=" << (args_.trace ? 1 : 0)
            << " threads=" << kThreads << " generations=" << kGenerations << "\n";
  std::printf("digest catalog=%016llx placement=%016llx schedule=%016llx alpha=%.6g\n",
              static_cast<unsigned long long>(inputs_.catalog_digest),
              static_cast<unsigned long long>(placement_.digest),
              static_cast<unsigned long long>(inputs_.schedule_digest), placement_.alpha);
  std::fflush(stdout);

  // Measuring time splits evenly over the generations, kOpenShare of it
  // open loop and the rest closed loop; the traced run halves its closed
  // loop again into an untraced and a traced part (their ratio is the
  // tracing overhead).
  const double closed_s = args_.seconds * (1.0 - kOpenShare) / kGenerations;
  const double slice = args_.seconds * kOpenShare / kGenerations;
  for (int g = 0; g < kGenerations; ++g) {
    setup(g);
    if (args_.trace) {
      closed_phase(closed_s / 2, false, 0xC000 + 16 * g);
      closed_phase(closed_s / 2, true, 0xC800 + 16 * g);
    } else {
      closed_phase(closed_s, false, 0xC000 + 16 * g);
    }
    const auto at = [&](double s) {
      return static_cast<std::size_t>(
          std::lower_bound(inputs_.schedule.begin(), inputs_.schedule.end(), s,
                           [](const Op& op, double v) { return op.due_s < v; }) -
          inputs_.schedule.begin());
    };
    open_phase(at(g * slice), at((g + 1) * slice), g * slice, args_.trace);

    const auto counters = gen_->transport.counters();
    client_errors_ += static_cast<double>(client_transport_errors(counters));
    wqueue_peak_ = std::max(wqueue_peak_, static_cast<double>(counters.wqueue_peak));
    double rss_kb = 0.0;
    for (const auto& d : gen_->cluster.sample()) rss_kb += static_cast<double>(d.hwm_kb);
    rss_mb_.push_back(rss_kb / 1024.0);
    // Clients first (their destructors flush access reports to the live
    // master), then the daemons, whose exit lines carry their counters.
    gen_->probe.reset();
    gen_->reader.reset();
    gen_->writer.reset();
    const ClusterExit exit = gen_->cluster.stop();
    gen_.reset();
    clusters_clean_ = clusters_clean_ && exit.clean;
    daemon_framing_errors_ += exit.framing_errors;
    server_writev_calls_ += exit.server_writev_calls;
    server_frames_sent_ += exit.server_frames_sent;
  }

  Tally all = measured_;
  all.add(other_);
  const bool correct = all.wrong == 0 && daemon_framing_errors_ == 0 && clusters_clean_ &&
                       placement_stable_ && kernel_mismatches_.load() == 0;
  const auto metrics = args_.trace ? per_layer() : end_to_end();

  std::cout << "operations attempted=" << all.attempted << " failed=" << all.failed
            << " wrong_bytes=" << all.wrong << " stale_reads=" << all.stale
            << " (single-flight " << all.stale_shared << ")"
            << " probe_failures=" << probe_failures_.load()
            << " failed_op_ratio=" << ratio(static_cast<double>(all.failed),
                                            static_cast<double>(all.attempted))
            << "\n";
  std::cout << "checks placement_stable=" << placement_stable_
            << " daemons_clean=" << clusters_clean_
            << " daemon_framing_errors=" << daemon_framing_errors_
            << " client_transport_errors=" << client_errors_
            << " kernel_mismatches=" << kernel_mismatches_.load()
            << " correct=" << (correct ? "true" : "false") << "\n";
  const Quiet closed = quiet_median(closed_rates_, closed_steal_);
  const Quiet reads = chunked_percentile(open_.read_ms, 0.5, steal_);
  const Quiet writes = chunked_percentile(write_samples(), 0.5, steal_);
  const Quiet setups = quiet_median(setup_s_, setup_steal_);
  std::printf(
      "host steal %.2f%% of CPU; quiet (<= %.0f%% stolen): %zu/%zu closed-loop windows, "
      "%zu/%zu read windows, %zu/%zu write windows, %zu/%zu set-ups\n",
      100.0 * steal_.steal(run_start, now_ns()), 100.0 * kQuietSteal, closed.kept, closed.total,
      reads.kept, reads.total, writes.kept, writes.total, setups.kept, setups.total);
  std::printf("setup_s by generation (steal):");
  for (std::size_t g = 0; g < setup_s_.size(); ++g) {
    std::printf(" %.3f (%.1f%%)", setup_s_[g], 100.0 * setup_steal_[g]);
  }
  std::printf("\n");
  std::fflush(stdout);
  for (const auto& [what, n] : errors_) std::cout << "error x" << n << " " << what << "\n";
  for (const auto& m : metrics) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << all.attempted
       << ", \"failed\": " << all.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";

  const std::string stem = args_.out + "/" + spec_.name + "-seed" + std::to_string(args_.seed) +
                           (args_.trace ? "-trace" : "");
  std::ofstream(stem + ".json") << json.str() << "\n";
  {
    // Every open-loop request, for offline analysis of the latency metrics.
    std::ofstream csv(stem + ".latency.csv");
    csv << "due_ns,ms,op,steal\n";
    const auto row = [&](const Latency& x, const char* op) {
      const auto done = x.due_ns + static_cast<std::int64_t>(x.ms * 1e6);
      csv << x.due_ns << "," << x.ms << "," << op << "," << steal_.steal(x.due_ns, done) << "\n";
    };
    for (const auto& x : open_.read_ms) row(x, "read");
    for (const auto& x : open_.write_ms) row(x, "write");
    std::ofstream windows(stem + ".windows.csv");
    windows << "ops_per_s,steal\n";
    for (std::size_t w = 0; w < closed_rates_.size(); ++w) {
      windows << closed_rates_[w] << "," << closed_steal_[w] << "\n";
    }
  }
  if (args_.trace) {
    write_spans(stem + ".spans.jsonl");
    std::cout << "spans written to " << stem << ".spans.jsonl\n";
  }
  std::cout << json.str() << std::endl;
  return 0;
}

int usage(const char* why) {
  std::cerr << "perfbench_loadgen: " << why
            << "\nusage: perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1 "
               "--bindir DIR --out DIR --tmp DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--bindir") {
      args.bindir = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--tmp") {
      args.tmp = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags come in pairs");
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) return usage(("unknown workload '" + args.workload + "'").c_str());
  if (!(args.seconds >= 1.0)) return usage("--seconds must be at least 1");
  if (args.bindir.empty() || args.out.empty() || args.tmp.empty()) {
    return usage("--bindir, --out and --tmp are required");
  }

  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  // Client sockets outlive daemons during teardown: EPIPE, not death.
  ::signal(SIGPIPE, SIG_IGN);

  try {
    Runner runner(args, *spec);
    return runner.run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_loadgen: FAIL " << e.what() << "\n";
    return 1;
  }
}
