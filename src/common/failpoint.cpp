#include "common/failpoint.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#if defined(__unix__)
#include <csignal>
#include <unistd.h>
#endif

#include "common/cancel.hpp"
#include "common/error.hpp"

namespace cnt::fp {

namespace {

enum class Kind : u8 { kEnospc, kEio, kShort, kDelay, kCrash, kHang };

struct Entry {
  std::string site;
  std::string action;  ///< as written in the spec, for armed()
  Kind kind = Kind::kEnospc;
  u64 delay_ms = 10;
  u64 trigger = 1;
  bool fired = false;
};

struct Registry {
  std::mutex mu;
  std::vector<Entry> entries;  // cnt-lint: guarded-by(mu)
  std::map<std::string, u64, std::less<>> hits;  // cnt-lint: guarded-by(mu)
  bool probe = false;  // cnt-lint: guarded-by(mu) count hits with nothing armed
  std::string report_path;  // cnt-lint: guarded-by(mu) $CNT_FAILPOINT_REPORT
  bool atexit_registered = false;  // cnt-lint: guarded-by(mu)
};

Registry& reg() {
  static Registry r;  // cnt-lint: global-ok mutex-guarded failpoint registry
  return r;
}

/// 0 = environment not read yet, 1 = disabled, 2 = armed or probing.
/// The hot path is one relaxed load of this flag.
std::atomic<int> g_state{0};  // fast-path flag, release/relaxed ordering

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

[[noreturn]] void crash_now() {
  // The moral equivalent of a power cut: no destructors, no flushes
  // beyond what already reached the kernel.
  std::fflush(nullptr);
#if defined(__unix__)
  ::kill(::getpid(), SIGKILL);
#endif
  std::abort();
}

Entry parse_entry(std::string_view text) {
  const auto eq = text.find('=');
  if (eq == std::string_view::npos) {
    throw ValueError(Errc::kSyntax,
                     "failpoint entry '" + std::string(text) + "' has no '='")
        .at("CNT_FAILPOINTS")
        .hint("write site=action[:arg][@N], e.g. journal.write=error:ENOSPC@3");
  }
  Entry e;
  e.site = std::string(trim(text.substr(0, eq)));
  const auto& catalog = site_catalog();
  if (!std::binary_search(catalog.begin(), catalog.end(), e.site)) {
    const std::string near = nearest_match(e.site, catalog);
    throw ValueError(Errc::kUnknownKey,
                     "unknown failpoint site '" + e.site + "'")
        .at("CNT_FAILPOINTS")
        .hint(near.empty()
                  ? "tools/cnt-torture --list prints the site catalog"
                  : "did you mean '" + near + "'?");
  }
  std::string_view rest = trim(text.substr(eq + 1));
  const auto at_pos = rest.rfind('@');
  if (at_pos != std::string_view::npos) {
    const std::string_view digits = trim(rest.substr(at_pos + 1));
    u64 n = 0;
    bool ok = !digits.empty();
    for (const char c : digits) {
      if (c < '0' || c > '9' || n > (u64{1} << 60)) {
        ok = false;
        break;
      }
      n = n * 10 + static_cast<u64>(c - '0');
    }
    if (!ok || n == 0) {
      throw ValueError(Errc::kValue, "bad hit index '" + std::string(digits) +
                                         "' in failpoint entry '" +
                                         std::string(text) + "'")
          .at("CNT_FAILPOINTS")
          .hint("@N is a 1-based decimal evaluation index, e.g. "
                "journal.write=crash@4");
    }
    e.trigger = n;
    rest = trim(rest.substr(0, at_pos));
  }
  e.action = std::string(rest);
  if (rest == "error:ENOSPC") {
    e.kind = Kind::kEnospc;
  } else if (rest == "error:EIO") {
    e.kind = Kind::kEio;
  } else if (rest == "short-write") {
    e.kind = Kind::kShort;
  } else if (rest == "crash") {
    e.kind = Kind::kCrash;
  } else if (rest == "hang") {
    e.kind = Kind::kHang;
  } else if (rest == "delay" || rest.substr(0, 6) == "delay:") {
    e.kind = Kind::kDelay;
    if (rest.size() > 6) {
      const std::string_view digits = rest.substr(6);
      u64 ms = 0;
      bool ok = !digits.empty();
      for (const char c : digits) {
        if (c < '0' || c > '9' || ms > 60'000) {
          ok = false;
          break;
        }
        ms = ms * 10 + static_cast<u64>(c - '0');
      }
      if (!ok) {
        throw ValueError(Errc::kValue,
                         "bad delay '" + std::string(rest) + "'")
            .at("CNT_FAILPOINTS")
            .hint("write delay or delay:<milliseconds>, at most 60000");
      }
      e.delay_ms = ms;
    }
  } else {
    throw ValueError(Errc::kValue,
                     "unknown failpoint action '" + std::string(rest) + "'")
        .at("CNT_FAILPOINTS")
        .hint("actions: error:ENOSPC, error:EIO, short-write, delay[:ms], "
              "hang, crash");
  }
  return e;
}

std::vector<Entry> parse_spec(std::string_view spec) {
  std::vector<Entry> entries;
  usize start = 0;
  for (usize i = 0; i <= spec.size(); ++i) {
    if (i == spec.size() || spec[i] == ';' || spec[i] == ',') {
      const std::string_view piece = trim(spec.substr(start, i - start));
      if (!piece.empty()) entries.push_back(parse_entry(piece));
      start = i + 1;
    }
  }
  return entries;
}

void lazy_init_from_env() {
  try {
    configure_from_env();
  } catch (const std::exception& e) {
    // A typo in CNT_FAILPOINTS must never degrade into a silently
    // clean run -- the torture harness would report false passes.
    std::fprintf(stderr, "cnt-failpoint: %s\n", e.what());
    std::exit(2);
  }
}

}  // namespace

bool enabled() noexcept {
  int s = g_state.load(std::memory_order_relaxed);
  if (s == 0) {
    lazy_init_from_env();
    s = g_state.load(std::memory_order_relaxed);
  }
  return s == 2;
}

Action evaluate(std::string_view site) noexcept {
  u64 delay_ms = 0;
  bool crash = false;
  bool hang = false;
  Action act = Action::kNone;
  {
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    u64 h = 0;
    auto it = r.hits.find(site);
    if (it == r.hits.end()) {
      r.hits.emplace(std::string(site), u64{1});
      h = 1;
    } else {
      h = ++it->second;
    }
    for (Entry& e : r.entries) {
      if (e.fired || e.site != site || e.trigger != h) continue;
      e.fired = true;  // one-shot: recovery paths run clean
      switch (e.kind) {
        case Kind::kEnospc: act = Action::kErrorEnospc; break;
        case Kind::kEio: act = Action::kErrorEio; break;
        case Kind::kShort: act = Action::kShortWrite; break;
        case Kind::kDelay: delay_ms = e.delay_ms; break;
        case Kind::kCrash: crash = true; break;
        case Kind::kHang: hang = true; break;
      }
      break;
    }
  }
  if (crash) crash_now();
  if (hang) {
    // Park outside the registry lock (other sites keep evaluating) until
    // this thread's cancellation token fires. A token waiter wakes
    // immediately via the condition variable; with no token installed the
    // park is unbounded -- exactly the torture case the watchdog and the
    // chaos wall's wall-clock bound exist to catch.
    cancel::Token* token = cancel::current();
    if (token != nullptr) {
      while (!token->cancelled()) (void)token->wait_ms(60'000);
    } else {
      while (!cancel::poll()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    return Action::kCancelled;
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return act;
}

void configure(std::string_view spec) {
  std::vector<Entry> entries = parse_spec(spec);  // may throw; state untouched
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  r.entries = std::move(entries);
  r.hits.clear();
  g_state.store((r.entries.empty() && !r.probe) ? 1 : 2,
                std::memory_order_release);
}

void configure_from_env() {
  const char* spec = std::getenv("CNT_FAILPOINTS");
  const char* report = std::getenv("CNT_FAILPOINT_REPORT");
  std::vector<Entry> entries;
  if (spec != nullptr) entries = parse_spec(spec);
  bool need_atexit = false;
  {
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    r.entries = std::move(entries);
    r.hits.clear();
    r.report_path = report != nullptr ? report : "";
    r.probe = !r.report_path.empty();
    need_atexit = r.probe && !r.atexit_registered;
    if (need_atexit) r.atexit_registered = true;
    g_state.store((r.entries.empty() && !r.probe) ? 1 : 2,
                  std::memory_order_release);
  }
  if (need_atexit) {
    (void)std::atexit([] { write_report(); });
  }
}

void clear() noexcept {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  r.entries.clear();
  r.hits.clear();
  r.probe = false;
  r.report_path.clear();
  g_state.store(1, std::memory_order_release);
}

std::vector<SiteState> armed() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  std::vector<SiteState> out;
  out.reserve(r.entries.size());
  for (const Entry& e : r.entries) {
    const auto it = r.hits.find(e.site);
    out.push_back(SiteState{e.site, e.action, e.trigger,
                            it == r.hits.end() ? 0 : it->second});
  }
  return out;
}

u64 hit_count(std::string_view site) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  const auto it = r.hits.find(site);
  return it == r.hits.end() ? 0 : it->second;
}

void write_report() {
  std::string path;
  std::string body;
  {
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.report_path.empty()) return;
    path = r.report_path;
    for (const auto& [site, n] : r.hits) {  // std::map: sorted, deterministic
      body += site;
      body += ' ';
      body += std::to_string(n);
      body += '\n';
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cnt-failpoint: cannot write report %s\n",
                 path.c_str());
    return;
  }
  (void)std::fwrite(body.data(), 1, body.size(), f);
  (void)std::fclose(f);
}

const std::vector<std::string>& site_catalog() {
  // Sorted; parse_entry binary-searches it. One family per artifact
  // writer (docs/crash_consistency.md) plus the engine's job runner.
  static const std::vector<std::string> kSites = {
      "csv.rename",   "csv.sync",      "csv.write",    "engine.job",
      "journal.rename", "journal.sync", "journal.write", "stats.rename",
      "stats.sync",   "stats.write",   "trace.rename", "trace.sync",
      "trace.write",  "trs.sync",      "trs.write",
  };
  return kSites;
}

const std::vector<std::string>& action_catalog() {
  // Sorted, pinned by tests/test_failpoint.cpp so the grammar, the docs
  // and the chaos wall grow in lockstep.
  static const std::vector<std::string> kActions = {
      "crash", "delay", "error:EIO", "error:ENOSPC", "hang", "short-write",
  };
  return kActions;
}

}  // namespace cnt::fp
