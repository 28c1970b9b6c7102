#include "process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

}  // namespace

CpuPlan PlanCpus(int driver_want) {
  CpuPlan plan;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) plan.all.push_back(c);
    }
  }
  if (plan.all.empty()) plan.all.push_back(0);
  const int n = int(plan.all.size());
  if (n < 2) {
    plan.driver = plan.server = plan.all;
    return plan;
  }
  // The server keeps at least half the CPUs.
  const int driver = std::max(1, std::min(driver_want, n / 2));
  plan.driver.assign(plan.all.begin(), plan.all.begin() + driver);
  plan.server.assign(plan.all.begin() + driver, plan.all.end());
  plan.disjoint = true;
  return plan;
}

modb::Status PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    return modb::Status::Internal(std::string("sched_setaffinity: ") +
                                  std::strerror(errno));
  }
  return modb::Status::OK();
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string s;
  for (int c : cpus) {
    if (!s.empty()) s += ',';
    s += std::to_string(c);
  }
  return s;
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

modb::Result<Modbd> Modbd::Launch(const std::string& binary,
                                  const std::vector<std::string>& args,
                                  const std::vector<int>& cpus,
                                  std::chrono::seconds timeout) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return modb::Status::Internal(std::string("pipe: ") +
                                  std::strerror(errno));
  }
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);

  const Clock::time_point start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return modb::Status::Internal(std::string("fork: ") +
                                  std::strerror(errno));
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. The server dies
    // with the driver, so an aborted run never leaves it behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    sched_setaffinity(0, sizeof set, &set);
    dup2(fds[1], STDOUT_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  Modbd m;
  m.pid_ = pid;
  m.out_fd_ = fds[0];

  std::string out;
  const Clock::time_point deadline = start + timeout;
  for (;;) {
    const std::size_t nl = out.find('\n');
    if (nl != std::string::npos) {
      const std::string line = out.substr(0, nl);
      out.erase(0, nl + 1);
      const std::size_t at = line.find("listening on ");
      if (at != std::string::npos) {
        const std::size_t colon = line.rfind(':');
        m.port_ = std::atoi(line.c_str() + colon + 1);
        m.setup_s_ = SecondsSince(start);
        if (m.port_ <= 0) {
          return modb::Status::Internal("bad listening line: " + line);
        }
        return m;
      }
      continue;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) {
      return modb::Status::DeadlineExceeded("modbd did not start listening");
    }
    pollfd p = {m.out_fd_, POLLIN, 0};
    if (poll(&p, 1, int(left)) < 0 && errno != EINTR) {
      return modb::Status::Internal("poll on modbd stdout failed");
    }
    char buf[512];
    const ssize_t n = read(m.out_fd_, buf, sizeof buf);
    if (n == 0) return modb::Status::Internal("modbd exited before listening");
    if (n > 0) out.append(buf, std::size_t(n));
  }
}

Modbd::Modbd(Modbd&& other) noexcept
    : pid_(other.pid_),
      out_fd_(other.out_fd_),
      port_(other.port_),
      setup_s_(other.setup_s_) {
  other.pid_ = -1;
  other.out_fd_ = -1;
}

Modbd::~Modbd() { Kill(); }

void Modbd::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
}

double Modbd::StatusField(const std::string& key) const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::atof(line.c_str() + key.size() + 1);
    }
  }
  return -1;
}

modb::Status Modbd::Stop() {
  if (pid_ <= 0) return modb::Status::OK();
  kill(pid_, SIGTERM);
  // Drain stdout while the server shuts down: a full pipe must never
  // block its final report lines.
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  int status = 0;
  for (;;) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (Clock::now() > deadline) {
      Kill();
      return modb::Status::DeadlineExceeded("modbd did not stop in time");
    }
    pollfd p = {out_fd_, POLLIN, 0};
    if (poll(&p, 1, 20) > 0) {
      char buf[512];
      if (read(out_fd_, buf, sizeof buf) <= 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
  pid_ = -1;
  close(out_fd_);
  out_fd_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return modb::Status::Internal("modbd exited uncleanly (status " +
                                  std::to_string(status) + ")");
  }
  return modb::Status::OK();
}

}  // namespace perfbench
