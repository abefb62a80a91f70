#include "child_harness.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

#if defined(__unix__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/hash.hpp"

namespace cnt::harness {

#if defined(__unix__)

ChildStatus run_child(const std::function<int()>& payload,
                      const std::string& spec, const std::string& report,
                      const std::string& err_path, u64 deadline_ms) {
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "child_harness: fork failed\n";
    std::exit(2);
  }
  if (pid == 0) {
    ::unsetenv("CNT_RETRIES");
    ::unsetenv("CNT_JOB_TIMEOUT_MS");
    ::unsetenv("CNT_JOBS");
    if (spec.empty()) {
      ::unsetenv("CNT_FAILPOINTS");
    } else {
      ::setenv("CNT_FAILPOINTS", spec.c_str(), 1);
    }
    if (report.empty()) {
      ::unsetenv("CNT_FAILPOINT_REPORT");
    } else {
      ::setenv("CNT_FAILPOINT_REPORT", report.c_str(), 1);
    }
    int code = 0;
    try {
      fp::configure_from_env();
      code = payload();
    } catch (const std::exception& e) {
      // Expected for injected errors; recorded for --keep debugging.
      if (std::FILE* f = std::fopen(err_path.c_str(), "w")) {
        std::fprintf(f, "%s\n", format_error(e).c_str());
        (void)std::fclose(f);
      }
      code = 1;
    } catch (...) {
      code = 1;
    }
    fp::write_report();
    std::_Exit(code);  // no atexit/dtors: don't flush the parent's buffers
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  const cancel::Token pace;
  ChildStatus out;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      if (WIFSIGNALED(status)) {
        out.term_signal = WTERMSIG(status);
      } else if (WIFEXITED(status)) {
        out.exit_code = WEXITSTATUS(status);
      }
      return out;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      (void)::kill(pid, SIGKILL);
      (void)::waitpid(pid, &status, 0);
      out.killed_backstop = true;
      return out;
    }
    (void)pace.wait_ms(5);
  }
}

#endif  // defined(__unix__)

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::map<std::string, u64> read_report(const std::string& path) {
  std::map<std::string, u64> counts;
  std::ifstream in(path);
  std::string site;
  u64 n = 0;
  while (in >> site >> n) counts[site] = n;
  return counts;
}

u64 pick_index(std::string_view label, u64 seed, u64 count) {
  u64 h = fnv1a64(label);
  h ^= seed * 0x9e3779b97f4a7c15ULL;
  return 1 + h % count;
}

}  // namespace cnt::harness
