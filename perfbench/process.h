// CPU placement and the modbd child process: split the CPUs this
// process may run on into a driver set and a server set, spawn modbd
// pinned to its set, wait for its "listening" line, read its /proc
// status, and stop it.

#ifndef PERFBENCH_PROCESS_H_
#define PERFBENCH_PROCESS_H_

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace perfbench {

struct CpuPlan {
  std::vector<int> all;
  std::vector<int> driver;
  std::vector<int> server;
  /// False when the host has a single CPU: both sides then share it.
  bool disjoint = false;
};

/// Splits the CPUs of this process's affinity mask: the driver keeps
/// `driver_want` of them (fewer when the host is small) and modbd gets
/// the rest.
CpuPlan PlanCpus(int driver_want);
/// Pins the calling thread (and every thread it creates afterwards).
modb::Status PinCurrentThread(const std::vector<int>& cpus);
std::string CpuList(const std::vector<int>& cpus);
std::string LoadAverage();

/// One running modbd. The destructor kills and reaps a child that was
/// not stopped, so no error path leaves a server behind.
class Modbd {
 public:
  /// Forks and execs `binary args...` pinned to `cpus`, then waits (at
  /// most `timeout`) for its listening line. `setup_s` is the time from
  /// the fork to that line.
  static modb::Result<Modbd> Launch(const std::string& binary,
                                    const std::vector<std::string>& args,
                                    const std::vector<int>& cpus,
                                    std::chrono::seconds timeout);
  ~Modbd();
  Modbd(Modbd&& other) noexcept;
  Modbd& operator=(Modbd&&) = delete;
  Modbd(const Modbd&) = delete;
  Modbd& operator=(const Modbd&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  double setup_s() const { return setup_s_; }

  /// A "Key:" field of /proc/<pid>/status as a number (kB for VmHWM),
  /// or -1 when unreadable.
  double StatusField(const std::string& key) const;

  /// SIGTERM, then waits for a clean exit (code 0).
  modb::Status Stop();

 private:
  Modbd() = default;
  void Kill();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  double setup_s_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_H_
