// bench_tcp_scale — multi-client read throughput against real daemons,
// measuring the syscall budget of the TCP write path.
//
// Boots a real spcache_masterd + N spcache_serverd processes on ephemeral
// loopback ports, writes a deterministic dataset, then fans out
// E client endpoints x T threads of verified reads and reports ops/s,
// p50/p99 latency, and the servers' scatter-gather telemetry
// (transport.writev_calls / frames_per_writev, parsed off their exit
// lines). The timed `batched` arm runs the write path every daemon uses:
// staged sends (one loop wake per burst), a zero-copy frame queue, many
// frames per writev. It runs the timed fan-out --reps times against the
// same booted cluster and the best rep scores — the whole cluster shares
// the machine's cores with the clients, so single short windows are
// noisy. An untimed `chaos` arm then re-reads a smaller dataset with
// seeded partial-write chaos armed on both sides.
//
// Writes BENCH_tcp_scale.json (one row per arm) and exits nonzero if any
// read mismatched, any side saw a framing error, or the batched arm
// failed to batch (frames_per_writev <= 1).
//
//   bench_tcp_scale [--smoke] [--servers N] [--endpoints E] [--threads T]
//                   [--files F] [--file-kb KB] [--reads R] [--reps P]
//                   [--seed S] [--bindir DIR]
//
//   --smoke      small fixed workload for CI (a few seconds end to end)
//   --bindir DIR directory holding spcache_masterd/spcache_serverd
//                [<bench dir>/../tools]
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "fault/fault_injector.h"
#include "rpc/cache_service.h"
#include "rpc/tcp_transport.h"

using namespace spcache;
using namespace spcache::rpc;

namespace {

struct Options {
  // Defaults exercise the shape the syscall-lean path is built for: one
  // client endpoint shared by many threads, so reply bursts pile onto few
  // connections and the gather path amortizes wakes and writev calls.
  std::size_t servers = 3;
  std::size_t endpoints = 1;
  std::size_t threads = 32;  // per endpoint
  std::size_t files = 128;
  std::size_t file_kb = 6;
  std::size_t reads = 20000;  // per rep
  std::size_t reps = 3;       // timed repetitions; best rep scores
  std::uint64_t seed = 42;
  std::string bindir;
  bool smoke = false;
};

// One spawned daemon: pid + the file capturing its stdout/stderr.
struct Daemon {
  pid_t pid = -1;
  std::string log_path;
};

Daemon spawn(const std::vector<std::string>& argv_strings, const std::string& log_path) {
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (const auto& s : argv_strings) argv.push_back(const_cast<char*>(s.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("bench_tcp_scale: fork failed");
  if (pid == 0) {
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    std::perror("bench_tcp_scale: execv");
    std::_Exit(127);
  }
  return Daemon{pid, log_path};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Poll the daemon's log for its "listening on HOST:PORT" banner and return
// the kernel-assigned port.
std::uint16_t wait_for_port(const Daemon& d, std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string log = slurp(d.log_path);
    const auto pos = log.find("listening on ");
    if (pos != std::string::npos) {
      const auto eol = log.find('\n', pos);
      const std::string line = log.substr(pos, eol == std::string::npos ? eol : eol - pos);
      const auto colon = line.rfind(':');
      if (colon != std::string::npos) {
        const int port = std::atoi(line.c_str() + colon + 1);
        if (port > 0 && port <= 65535) return static_cast<std::uint16_t>(port);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  throw std::runtime_error("bench_tcp_scale: daemon never reported its port (" + d.log_path +
                           "):\n" + slurp(d.log_path));
}

// SIGTERM the daemon, reap it (escalating to SIGKILL after `grace`), and
// return its full log — exit-line counters included.
std::string stop_daemon(Daemon& d, std::chrono::seconds grace = std::chrono::seconds(5)) {
  if (d.pid > 0) {
    ::kill(d.pid, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + grace;
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(d.pid, &status, WNOHANG);
      if (r == d.pid || r < 0) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(d.pid, SIGKILL);
        ::waitpid(d.pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    d.pid = -1;
  }
  return slurp(d.log_path);
}

// "key=value" scrape off a daemon exit line; 0.0 when absent.
double scrape(const std::string& text, const std::string& key) {
  const auto pos = text.rfind(key + "=");
  if (pos == std::string::npos) return 0.0;
  return std::atof(text.c_str() + pos + key.size() + 1);
}

// Deterministic per-file content (xorshift over a splitmix-style seed), so
// every endpoint regenerates the expected bytes without sharing state.
std::vector<std::uint8_t> file_content(std::uint64_t seed, FileId f, std::size_t size) {
  std::vector<std::uint8_t> data(size);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + f + 1;
  for (auto& b : data) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  return data;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

struct ArmResult {
  double wall_s = 0.0;
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t reads = 0;        // best rep
  std::uint64_t timed_reads = 0;  // all reps (syscall denominators)
  std::uint64_t mismatches = 0;
  std::uint64_t read_failures = 0;
  std::uint64_t client_framing_errors = 0;
  std::uint64_t server_framing_errors = 0;
  double server_writev_calls = 0.0;
  double server_frames_sent = 0.0;
  double server_frames_per_writev = 0.0;
  double syscalls_per_read = 0.0;
  double sock_partial_writes = 0.0;  // chaos pass: total fired, both sides
};

// One endpoint: its own TCP transport (one connection to the master and to
// each worker) shared by `threads` reader threads — exactly the shape that
// queues several replies on one server connection at once.
struct Endpoint {
  std::unique_ptr<TcpTransport> transport;
  std::unique_ptr<Bus> bus;
  std::unique_ptr<RpcSpClient> client;
};

// One arm = its own booted cluster + client endpoints.
struct Arm {
  Options o;
  std::string tag;
  // Chaos verification pass: servers AND clients run with seeded
  // partial-write chaos armed, so every writev sees clamped flushes and the
  // iovec resume path — reads must still come back bit-exact.
  double chaos_partial = 0.0;
  std::unique_ptr<fault::FaultInjector> client_injector;

  std::vector<Daemon> workers;
  Daemon master;
  std::vector<Endpoint> endpoints;
  std::vector<std::vector<std::uint8_t>> expected;
  ArmResult result;
  std::uint64_t mismatches = 0;
  std::uint64_t failures = 0;

  Arm(const Options& opts, std::string arm_tag) : o(opts), tag(std::move(arm_tag)) {}

  // Spawn the daemons, connect the endpoints, write the dataset, and warm
  // every endpoint's layout cache + connections — all outside the clock.
  void boot() {
    const std::string prefix =
        "/tmp/bench_tcp_scale_" + tag + "_" + std::to_string(::getpid()) + "_";
    master = spawn({o.bindir + "/spcache_masterd", "--port", "0", "--max-seconds", "300"},
                   prefix + "master.log");
    for (std::size_t n = 0; n < o.servers; ++n) {
      std::vector<std::string> argv = {o.bindir + "/spcache_serverd",
                                       "--node",        std::to_string(kFirstWorkerNode + n),
                                       "--port",        "0",
                                       "--max-seconds", "300"};
      if (chaos_partial > 0.0) {
        argv.insert(argv.end(), {"--chaos-seed", std::to_string(o.seed + n), "--chaos-partial",
                                 std::to_string(chaos_partial)});
      }
      workers.push_back(spawn(argv, prefix + "server" + std::to_string(n) + ".log"));
    }
    const std::uint16_t master_port = wait_for_port(master, std::chrono::seconds(10));
    std::vector<std::uint16_t> worker_ports;
    for (const auto& w : workers) {
      worker_ports.push_back(wait_for_port(w, std::chrono::seconds(10)));
    }

    std::vector<std::uint32_t> all_servers(o.servers);
    for (std::size_t s = 0; s < o.servers; ++s) all_servers[s] = static_cast<std::uint32_t>(s);
    ClientCacheConfig cache;
    cache.single_flight = false;  // every read must hit the wire
    endpoints.resize(o.endpoints);
    for (std::size_t e = 0; e < o.endpoints; ++e) {
      auto& ep = endpoints[e];
      ep.transport = std::make_unique<TcpTransport>();
      if (chaos_partial > 0.0) {
        if (!client_injector) {
          fault::FaultConfig fc;
          fc.sock_partial_write_p = chaos_partial;
          client_injector = std::make_unique<fault::FaultInjector>(o.seed + 100, fc);
        }
        ep.transport->set_fault_injector(client_injector.get());
      }
      ep.transport->add_peer(kMasterNode, "127.0.0.1", master_port);
      std::vector<NodeId> worker_of_server;
      for (std::size_t s = 0; s < o.servers; ++s) {
        const NodeId node = kFirstWorkerNode + static_cast<NodeId>(s);
        ep.transport->add_peer(node, "127.0.0.1", worker_ports[s]);
        worker_of_server.push_back(node);
      }
      ep.transport->start();
      ep.bus = std::make_unique<Bus>(*ep.transport);
      ep.client = std::make_unique<RpcSpClient>(
          *ep.bus, kFirstClientNode + static_cast<NodeId>(e), kMasterNode,
          std::move(worker_of_server), fault::RetryPolicy{}, std::chrono::milliseconds(2000),
          cache);
    }

    // Dataset: every file striped over every server.
    const std::size_t file_size = o.file_kb * 1024;
    expected.resize(o.files);
    for (std::size_t f = 0; f < o.files; ++f) {
      expected[f] = file_content(o.seed, static_cast<FileId>(f), file_size);
      endpoints[0].client->write(static_cast<FileId>(f), expected[f], all_servers);
    }
    std::vector<FileId> ids(o.files);
    for (std::size_t f = 0; f < o.files; ++f) ids[f] = static_cast<FileId>(f);
    for (auto& ep : endpoints) {
      ep.client->prefetch_layouts(ids);
      (void)ep.client->read(0);
    }
  }

  // One timed fan-out window. The best window scores; correctness counters
  // (mismatches, failures, framing) accumulate over every rep, and the
  // server syscall counters cover them all.
  void run_rep(std::size_t rep) {
    const std::size_t total_threads = o.endpoints * o.threads;
    const std::size_t reads_per_thread = std::max<std::size_t>(1, o.reads / total_threads);
    std::atomic<std::uint64_t> rep_mismatches{0};
    std::atomic<std::uint64_t> rep_failures{0};
    std::vector<std::thread> pool;
    std::vector<std::vector<double>> latencies(total_threads);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < total_threads; ++t) {
      pool.emplace_back([&, t, rep] {
        auto& client = *endpoints[t / o.threads].client;
        auto& lat = latencies[t];
        lat.reserve(reads_per_thread);
        std::uint64_t x = o.seed ^ (0xD1B54A32D192ED03ull * (t + 1) + rep);
        for (std::size_t r = 0; r < reads_per_thread; ++r) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          const auto fid = static_cast<FileId>(x % o.files);
          const auto t0 = std::chrono::steady_clock::now();
          try {
            const auto bytes = client.read(fid);
            lat.push_back(
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
            if (bytes != expected[fid]) rep_mismatches.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::exception&) {
            rep_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    std::vector<double> all;
    for (auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
    std::sort(all.begin(), all.end());
    result.timed_reads += all.size();
    mismatches += rep_mismatches.load();
    failures += rep_failures.load();
    const double ops = wall_s > 0 ? static_cast<double>(all.size()) / wall_s : 0;
    if (ops > result.ops_per_s) {
      result.wall_s = wall_s;
      result.ops_per_s = ops;
      result.reads = all.size();
      result.p50_ms = percentile(all, 0.50) * 1e3;
      result.p99_ms = percentile(all, 0.99) * 1e3;
    }
  }

  // Tear everything down and scrape the servers' exit-line telemetry.
  ArmResult finish() {
    result.mismatches = mismatches;
    result.read_failures = failures;
    for (auto& ep : endpoints) {
      if (!ep.transport) continue;
      result.client_framing_errors += ep.transport->counters().framing_errors;
      ep.client.reset();  // flushes access reports while the wire is up
      ep.bus.reset();
      ep.transport.reset();
    }
    if (client_injector) {
      result.sock_partial_writes +=
          static_cast<double>(client_injector->stats().sock_partial_writes);
    }
    for (auto& w : workers) {
      const std::string log = stop_daemon(w);
      result.server_framing_errors +=
          static_cast<std::uint64_t>(scrape(log, "transport.framing_errors"));
      result.server_writev_calls += scrape(log, "transport.writev_calls");
      result.server_frames_sent += scrape(log, "transport.frames_sent");
      if (chaos_partial > 0.0) {
        result.sock_partial_writes += scrape(log, "chaos.sock_partial_writes");
      }
    }
    {
      const std::string log = stop_daemon(master);
      result.server_framing_errors +=
          static_cast<std::uint64_t>(scrape(log, "transport.framing_errors"));
    }
    if (result.server_writev_calls > 0) {
      result.server_frames_per_writev = result.server_frames_sent / result.server_writev_calls;
    }
    if (result.timed_reads > 0) {
      result.syscalls_per_read =
          result.server_writev_calls / static_cast<double>(result.timed_reads);
    }
    return result;
  }

  // Best-effort emergency teardown (error paths).
  void kill_daemons() {
    for (auto& ep : endpoints) {
      ep.client.reset();
      ep.bus.reset();
      ep.transport.reset();
    }
    for (auto& w : workers) stop_daemon(w, std::chrono::seconds(2));
    stop_daemon(master, std::chrono::seconds(2));
  }
};

bench::JsonRow arm_row(const std::string& arm, const Options& o, const ArmResult& r) {
  bench::JsonRow row;
  row.push_back(bench::text_field("arm", arm));
  row.emplace_back("servers", static_cast<double>(o.servers));
  row.emplace_back("endpoints", static_cast<double>(o.endpoints));
  row.emplace_back("threads_per_endpoint", static_cast<double>(o.threads));
  row.emplace_back("files", static_cast<double>(o.files));
  row.emplace_back("file_kb", static_cast<double>(o.file_kb));
  row.emplace_back("reads", static_cast<double>(r.reads));
  row.emplace_back("wall_s", r.wall_s);
  row.emplace_back("ops_per_s", r.ops_per_s);
  row.emplace_back("p50_ms", r.p50_ms);
  row.emplace_back("p99_ms", r.p99_ms);
  row.emplace_back("mismatches", static_cast<double>(r.mismatches));
  row.emplace_back("read_failures", static_cast<double>(r.read_failures));
  row.emplace_back("client_framing_errors", static_cast<double>(r.client_framing_errors));
  row.emplace_back("server_framing_errors", static_cast<double>(r.server_framing_errors));
  row.emplace_back("server_writev_calls", r.server_writev_calls);
  row.emplace_back("server_frames_sent", r.server_frames_sent);
  row.emplace_back("server_frames_per_writev", r.server_frames_per_writev);
  row.emplace_back("syscalls_per_read", r.syscalls_per_read);
  return row;
}

void print_arm(const std::string& arm, const ArmResult& r) {
  std::cout << "arm=" << arm << " reads=" << r.reads << " ops_per_s=" << r.ops_per_s
            << " p50_ms=" << r.p50_ms << " p99_ms=" << r.p99_ms
            << " mismatches=" << r.mismatches << " read_failures=" << r.read_failures
            << " framing_errors=" << (r.client_framing_errors + r.server_framing_errors)
            << " server_writev_calls=" << r.server_writev_calls
            << " server_frames_per_writev=" << r.server_frames_per_writev
            << " syscalls_per_read=" << r.syscalls_per_read << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&] {
      if (i + 1 >= argc) {
        std::cerr << "bench_tcp_scale: missing value for " << flag << "\n";
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (flag == "--smoke") {
      o.smoke = true;
    } else if (flag == "--servers") {
      o.servers = std::strtoul(value().c_str(), nullptr, 10);
    } else if (flag == "--endpoints") {
      o.endpoints = std::strtoul(value().c_str(), nullptr, 10);
    } else if (flag == "--threads") {
      o.threads = std::strtoul(value().c_str(), nullptr, 10);
    } else if (flag == "--files") {
      o.files = std::strtoul(value().c_str(), nullptr, 10);
    } else if (flag == "--file-kb") {
      o.file_kb = std::strtoul(value().c_str(), nullptr, 10);
    } else if (flag == "--reads") {
      o.reads = std::strtoul(value().c_str(), nullptr, 10);
    } else if (flag == "--reps") {
      o.reps = std::max<std::size_t>(1, std::strtoul(value().c_str(), nullptr, 10));
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--bindir") {
      o.bindir = value();
    } else if (flag == "--help" || flag == "-h") {
      std::cout << "bench_tcp_scale [--smoke] [--servers N] [--endpoints E] [--threads T] "
                   "[--files F] [--file-kb KB] [--reads R] [--reps P] [--seed S] "
                   "[--bindir DIR]\n";
      return 0;
    } else {
      std::cerr << "bench_tcp_scale: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (o.smoke) {
    o.servers = 3;
    o.endpoints = 1;
    o.threads = 32;
    o.files = 64;
    o.file_kb = 6;
    o.reads = 15000;
    o.reps = 5;
  }
  if (o.bindir.empty()) {
    // Default: the daemons live next door (build/bench -> build/tools).
    const std::string self = argv[0];
    const auto slash = self.rfind('/');
    o.bindir = (slash == std::string::npos ? std::string(".") : self.substr(0, slash)) +
               "/../tools";
  }
  // Ignore SIGPIPE process-wide: client transports write to daemons this
  // process kills, and a stray EPIPE must surface as an errno, not a death.
  ::signal(SIGPIPE, SIG_IGN);

  std::cout << "bench_tcp_scale: servers=" << o.servers << " endpoints=" << o.endpoints
            << " threads/endpoint=" << o.threads << " files=" << o.files
            << " file_kb=" << o.file_kb << " reads=" << o.reads << " reps=" << o.reps
            << " seed=" << o.seed << (o.smoke ? " (smoke)" : "") << std::endl;

  Arm batched_arm(o, "batched");
  // Untimed chaos pass: a small cluster where both sides run seeded
  // partial-write chaos, so clamped flushes exercise the iovec resume path
  // on live daemons — every read must still be bit-exact.
  Options chaos_o = o;
  chaos_o.threads = 8;
  chaos_o.reads = 600;
  chaos_o.files = std::min<std::size_t>(o.files, 32);
  Arm chaos_arm(chaos_o, "chaos");
  chaos_arm.chaos_partial = 0.05;
  ArmResult batched;
  ArmResult chaos;
  try {
    batched_arm.boot();
    for (std::size_t rep = 0; rep < o.reps; ++rep) batched_arm.run_rep(rep);
    batched = batched_arm.finish();
    print_arm("batched", batched);
    chaos_arm.boot();
    chaos_arm.run_rep(0);
    chaos = chaos_arm.finish();
    std::cout << "arm=chaos reads=" << chaos.timed_reads << " mismatches=" << chaos.mismatches
              << " read_failures=" << chaos.read_failures << " framing_errors="
              << (chaos.client_framing_errors + chaos.server_framing_errors)
              << " sock_partial_writes=" << chaos.sock_partial_writes << std::endl;
  } catch (const std::exception& e) {
    batched_arm.kill_daemons();
    chaos_arm.kill_daemons();
    std::cerr << "bench_tcp_scale: FAIL " << e.what() << "\n";
    return 1;
  }

  auto chaos_row = arm_row("chaos", chaos_o, chaos);
  chaos_row.emplace_back("sock_partial_writes", chaos.sock_partial_writes);
  bench::write_json_report("tcp_scale", {arm_row("batched", o, batched), chaos_row});

  // Gates: correctness is absolute (including under chaos); the batched arm
  // must actually batch, and the chaos pass must actually have fired faults.
  bool ok = true;
  const std::uint64_t mismatches = batched.mismatches + chaos.mismatches;
  const std::uint64_t framing = batched.client_framing_errors + batched.server_framing_errors +
                                chaos.client_framing_errors + chaos.server_framing_errors;
  if (chaos.read_failures != 0 || chaos.sock_partial_writes <= 0.0) {
    std::cerr << "bench_tcp_scale: FAIL chaos read_failures=" << chaos.read_failures
              << " sock_partial_writes=" << chaos.sock_partial_writes
              << " (want 0 failures and > 0 fired faults)\n";
    ok = false;
  }
  if (mismatches != 0) {
    std::cerr << "bench_tcp_scale: FAIL mismatches=" << mismatches << "\n";
    ok = false;
  }
  if (framing != 0) {
    std::cerr << "bench_tcp_scale: FAIL framing_errors=" << framing << "\n";
    ok = false;
  }
  if (batched.server_frames_per_writev <= 1.0) {
    std::cerr << "bench_tcp_scale: FAIL server_frames_per_writev="
              << batched.server_frames_per_writev << " (expected > 1)\n";
    ok = false;
  }
  std::cout << "gates mismatches=" << mismatches << " framing_errors=" << framing
            << " batched_frames_per_writev=" << batched.server_frames_per_writev
            << " result=" << (ok ? "PASS" : "FAIL") << std::endl;
  return ok ? 0 : 1;
}
