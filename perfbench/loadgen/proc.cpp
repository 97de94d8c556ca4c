#include "proc.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "spans.h"

namespace perfbench {

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Value of a "Key:   123 kB" line in a /proc status file; 0 when absent.
std::uint64_t status_field(const std::string& text, const char* key) {
  const auto pos = text.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + std::strlen(key), nullptr, 10);
}

const double kTicksPerSecond = static_cast<double>(::sysconf(_SC_CLK_TCK));

ProcSample sample_pid(pid_t pid) {
  ProcSample s;
  const std::string dir = "/proc/" + std::to_string(pid);
  {
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    const std::string stat = slurp(dir + "/stat");
    const auto close = stat.rfind(')');
    if (close != std::string::npos) {
      std::istringstream in(stat.substr(close + 2));
      std::string field;
      unsigned long long utime = 0;
      unsigned long long stime = 0;
      for (int i = 3; i <= 15 && in >> field; ++i) {
        if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
        if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
      }
      s.cpu_s = static_cast<double>(utime + stime) / kTicksPerSecond;
    }
  }
  s.hwm_kb = status_field(slurp(dir + "/status"), "VmHWM:");
  // Context switches are per thread; the daemons' threads live as long as
  // the process, so summing the live tasks covers them.
  if (DIR* tasks = ::opendir((dir + "/task").c_str())) {
    while (const dirent* e = ::readdir(tasks)) {
      if (e->d_name[0] == '.') continue;
      const std::string st = slurp(dir + "/task/" + e->d_name + "/status");
      s.vol_cs += status_field(st, "voluntary_ctxt_switches:");
      s.invol_cs += status_field(st, "nonvoluntary_ctxt_switches:");
    }
    ::closedir(tasks);
  }
  const std::string io = slurp(dir + "/io");
  s.wchar = status_field(io, "wchar:");
  s.syscw = status_field(io, "syscw:");
  return s;
}

// "key=value" scraped off a daemon exit line; 0 when absent.
double scrape(const std::string& text, const std::string& key) {
  const auto pos = text.rfind(key + "=");
  if (pos == std::string::npos) return 0.0;
  return std::atof(text.c_str() + pos + key.size() + 1);
}

}  // namespace

class Daemon {
 public:
  Daemon(std::vector<std::string> argv, std::string log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  // Poll the log for the "listening on HOST:PORT" banner.
  std::uint16_t wait_for_port(std::chrono::milliseconds timeout) const;
  // SIGTERM, then SIGKILL after `grace`; returns the log (exit line
  // included) and whether the daemon exited 0 on its own.
  std::string stop(std::chrono::milliseconds grace, bool& clean_exit);

 private:
  pid_t pid_ = -1;
  std::string log_path_;
};


StealMonitor::StealMonitor() : thread_([this] { loop(); }) {}

StealMonitor::~StealMonitor() {
  stop_ = true;
  thread_.join();
}

void StealMonitor::loop() {
  while (!stop_) {
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    Point p{now_ns(), 0, 0};
    for (int i = 0; i < 8; ++i) {
      std::uint64_t v = 0;
      in >> v;
      p.total += v;
      if (i == 7) p.steal = v;
    }
    if (in) {
      std::lock_guard lock(mu_);
      points_.push_back(p);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

double StealMonitor::steal(std::int64_t from_ns, std::int64_t to_ns) const {
  std::lock_guard lock(mu_);
  const auto by_time = [](const Point& p, std::int64_t ns) { return p.ns < ns; };
  // The last sample at or before `from`, and the first at or after `to`.
  auto a = std::lower_bound(points_.begin(), points_.end(), from_ns, by_time);
  if (a != points_.begin() && (a == points_.end() || a->ns > from_ns)) --a;
  auto b = std::lower_bound(points_.begin(), points_.end(), to_ns, by_time);
  if (b == points_.end() && !points_.empty()) --b;  // still running: up to the last sample
  if (a == points_.end() || b == points_.end() || b->total <= a->total) return 0.0;
  return static_cast<double>(b->steal - a->steal) / static_cast<double>(b->total - a->total);
}

ProcSample sample_self() {
  ProcSample s = sample_pid(::getpid());
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  s.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  s.vol_cs = static_cast<std::uint64_t>(ru.ru_nvcsw);
  s.invol_cs = static_cast<std::uint64_t>(ru.ru_nivcsw);
  return s;
}

ProcDelta operator-(const ProcSample& after, const ProcSample& before) {
  ProcDelta d;
  d.cpu_s = after.cpu_s - before.cpu_s;
  d.ctx = static_cast<double>((after.vol_cs + after.invol_cs) -
                              (before.vol_cs + before.invol_cs));
  d.wchar = static_cast<double>(after.wchar - before.wchar);
  d.syscw = static_cast<double>(after.syscw - before.syscw);
  return d;
}

Daemon::Daemon(std::vector<std::string> argv_strings, std::string log_path)
    : log_path_(std::move(log_path)) {
  std::vector<char*> argv;
  for (auto& a : argv_strings) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed: " + std::string(std::strerror(errno)));
  if (pid_ == 0) {
    // Die with the load generator, whatever kills it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) std::_Exit(1);
    const int fd = ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    std::perror("execv");
    std::_Exit(127);
  }
}

Daemon::~Daemon() {
  bool clean = false;
  stop(std::chrono::milliseconds(2000), clean);
}

std::uint16_t Daemon::wait_for_port(std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string log = slurp(log_path_);
    const auto pos = log.find("listening on ");
    const auto eol = pos == std::string::npos ? pos : log.find('\n', pos);
    if (eol != std::string::npos) {
      const std::string line = log.substr(pos, eol - pos);
      const auto colon = line.find(':');
      const int port = colon == std::string::npos ? 0 : std::atoi(line.c_str() + colon + 1);
      if (port > 0 && port <= 65535) return static_cast<std::uint16_t>(port);
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      throw std::runtime_error("daemon exited during start-up:\n" + log);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  throw std::runtime_error("daemon never reported its port (" + log_path_ + ")");
}

std::string Daemon::stop(std::chrono::milliseconds grace, bool& clean_exit) {
  clean_exit = false;
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + grace;
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        break;
      }
      if (r < 0) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }
  return slurp(log_path_);
}

Cluster::Cluster(const std::string& bindir, const std::string& log_dir, int generation) {
  // Backstop for a load generator that is stopped without running its teardown.
  const std::string max_seconds = "300";
  const std::string prefix = log_dir + "/gen" + std::to_string(generation) + "-";
  master_ = std::make_unique<Daemon>(
      std::vector<std::string>{bindir + "/spcache_masterd", "--port", "0", "--max-seconds",
                               max_seconds},
      prefix + "master.log");
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers_.push_back(std::make_unique<Daemon>(
        std::vector<std::string>{bindir + "/spcache_serverd", "--node", std::to_string(w + 1),
                                 "--port", "0", "--max-seconds", max_seconds},
        prefix + "server" + std::to_string(w) + ".log"));
  }
  ports_.master = master_->wait_for_port(std::chrono::seconds(10));
  for (const auto& w : workers_) {
    ports_.workers.push_back(w->wait_for_port(std::chrono::seconds(10)));
  }
}

Cluster::~Cluster() = default;  // each Daemon reaps itself

std::vector<Daemon*> Cluster::all() const {
  std::vector<Daemon*> out{master_.get()};
  for (const auto& w : workers_) out.push_back(w.get());
  return out;
}

std::vector<ProcSample> Cluster::sample() const {
  std::vector<ProcSample> out;
  for (const Daemon* d : all()) out.push_back(sample_pid(d->pid()));
  return out;
}

ClusterExit Cluster::stop() {
  ClusterExit exit;
  for (Daemon* d : all()) {
    bool clean = false;
    const std::string log = d->stop(std::chrono::milliseconds(3000), clean);
    exit.clean = exit.clean && clean;
    exit.framing_errors += scrape(log, "transport.framing_errors");
    if (d != master_.get()) {
      exit.server_writev_calls += scrape(log, "transport.writev_calls");
      exit.server_frames_sent += scrape(log, "transport.frames_sent");
    }
  }
  return exit;
}

}  // namespace perfbench
