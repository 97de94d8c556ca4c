// Daemon lifecycle and /proc accounting for the benchmark load generator.
//
// A Cluster is one fresh spcache_masterd plus three spcache_serverd on
// kernel-assigned loopback ports, with logs in the run's temp dir. Every
// exit path reaps the daemons under a hard deadline: the destructor
// SIGTERMs, escalates to SIGKILL, and waits, and each daemon also carries
// PR_SET_PDEATHSIG and --max-seconds, so a load generator killed outright
// still leaves no orphan holding a port.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

// Process-level costs at one instant. cpu_s is utime + stime; ctx switch
// counts cover every thread; wchar/syscw are the bytes and syscalls of
// write-family calls (socket writev included).
struct ProcSample {
  double cpu_s = 0.0;
  std::uint64_t vol_cs = 0;
  std::uint64_t invol_cs = 0;
  std::uint64_t hwm_kb = 0;
  std::uint64_t wchar = 0;
  std::uint64_t syscw = 0;
};

// The load generator process itself (getrusage counts threads that already exited).
ProcSample sample_self();

struct ProcDelta {
  double cpu_s = 0.0;
  double ctx = 0.0;
  double wchar = 0.0;
  double syscw = 0.0;
};
ProcDelta operator-(const ProcSample& after, const ProcSample& before);

// The host's CPU steal over time: the aggregate /proc/stat counters,
// sampled every 5 ms on a background thread, so that a measured window can
// be judged by how much of the VM's CPU time the host took during it.
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  // Share of the VM's CPU time stolen between two steady_clock instants
  // (nanoseconds since its epoch), as far as the samples cover it; 0 when
  // they do not.
  double steal(std::int64_t from_ns, std::int64_t to_ns) const;

 private:
  struct Point {
    std::int64_t ns;
    std::uint64_t steal;
    std::uint64_t total;
  };
  void loop();

  mutable std::mutex mu_;
  std::vector<Point> points_;  // guarded by mu_
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// One daemon process (proc.cpp).
class Daemon;

struct ClusterPorts {
  std::uint16_t master = 0;
  std::vector<std::uint16_t> workers;
};

// What the daemons said on the way out.
struct ClusterExit {
  bool clean = true;                // every daemon exited 0 (no framing error)
  double framing_errors = 0.0;      // all daemons
  double server_writev_calls = 0.0; // workers, lifetime
  double server_frames_sent = 0.0;  // workers, lifetime
};

class Cluster {
 public:
  static constexpr std::size_t kWorkers = 3;

  Cluster(const std::string& bindir, const std::string& log_dir, int generation);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterPorts& ports() const { return ports_; }
  // [master, worker 0, worker 1, worker 2]
  std::vector<ProcSample> sample() const;
  ClusterExit stop();

 private:
  std::vector<Daemon*> all() const;

  std::unique_ptr<Daemon> master_;
  std::vector<std::unique_ptr<Daemon>> workers_;
  ClusterPorts ports_;
};

}  // namespace perfbench
