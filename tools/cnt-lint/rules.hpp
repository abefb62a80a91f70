// cnt-lint rule engine: domain rules R1-R13 over lexed SourceFiles.
//
// Rule catalog (rationale + examples: docs/static_analysis.md):
//   R1 nondeterminism primitives (rand, srand, random_device, time(,
//      system_clock) outside src/common/rng.*         [nondet-ok]
//   R2 mutable namespace-scope / static state          [global-ok]
//   R3 const accessors returning non-void without [[nodiscard]]
//                                                      [nodiscard-ok]
//   R4 narrowing casts to <=16-bit integer types: C-style/functional
//      casts are banned outright; static_cast needs a range guard
//      within the preceding lines                      [narrow-ok]
//   R5 iteration over unordered containers feeding output (CSV, JSONL,
//      tables, streams)                                [unordered-ok]
//   R6 bare `throw std::runtime_error(...)` inside the taxonomy-migrated
//      subsystems (src/common, src/trace, src/exec)    [throw-ok]
//   R7 raw std::ofstream outside src/common/io.* -- artifact writers
//      must go through DurableFile / AtomicFileWriter   [io-ok]
//   R8 include-layering DAG: a module may only include modules at or
//      below its own layer (common -> device/energy/cnt -> cache ->
//      trace/fault -> sim -> exec -> bench/examples/tools/tests)
//                                                      [layer-ok]
//   R9 lock discipline: members annotated
//      `// cnt-lint: guarded-by(<mutex>)` may only be touched from
//      scopes holding a lock_guard/unique_lock/scoped_lock on that
//      mutex                                           [guard-ok]
//   R10 hot-path allocation ban: functions marked `// cnt-hot` must not
//      allocate (new/make_*/push_back/resize/reserve/std::string
//      construction); throw statements are exempt       [hot-ok]
//   R12 bare blocking waits: std::this_thread::sleep_for/sleep_until or
//      an unbounded condition-variable .wait( outside the cancellation
//      layer (src/common/cancel.*, src/common/failpoint.*) -- pauses
//      must be interruptible via cancel::Token::wait_ms or a bounded
//      wait_for/wait_until in a re-checking loop        [wait-ok]
//   R13 test scratch files: TempDir() called in tests/ anywhere but
//      tests/scratch_dir.hpp -- test files live in the per-test
//      test::ScratchDir                                 [tempdir-ok]
//
// Rule ids are never renumbered: the retired id between R10 and R12
// stays unused.
//
// R1-R8, R10, R12 and R13 are per-file. R9 consults a TreeContext harvested
// from every scanned file first (guard annotations in a header govern
// the paired .cpp), so the driver runs in two passes.
//
// A finding on line L is silenced by `// cnt-lint: <tag>` on line L or
// line L-1.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace cnt::lint {

struct Finding {
  std::string path;
  std::uint32_t line = 0;
  std::string rule;     ///< "R1".."R13" ("U0" for the suppression audit)
  std::string name;     ///< short rule name, e.g. "nondeterminism"
  std::string message;

  [[nodiscard]] bool operator<(const Finding& o) const noexcept {
    if (path != o.path) return path < o.path;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
};

struct RuleInfo {
  const char* id;
  const char* name;
  const char* suppression;  ///< tag that silences it
  const char* summary;
};

/// Static catalog, ordered by id.
[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();

/// One `guarded-by` annotation resolved to the declaration it covers.
struct GuardEntry {
  std::string member;           ///< guarded variable / member name
  std::string mutex_name;       ///< mutex that must be held
  std::string path;             ///< declaring file
  std::string stem;             ///< `path` minus extension; a guard in
                                ///< foo.hpp governs foo.cpp and back
  std::uint32_t decl_line = 0;  ///< line of the guarded declaration
  bool local = false;           ///< declared inside a function body
  std::uint32_t scope_first_line = 0;  ///< local guards: enclosing body
  std::uint32_t scope_last_line = 0;   ///< extent (inclusive lines)
};

/// Cross-file facts rule R9 consults; harvested before rules run.
struct TreeContext {
  std::vector<GuardEntry> guards;
};

/// Collect `file`'s guard annotations into `ctx`.
void harvest_context(const SourceFile& file, TreeContext& ctx);

/// Run the selected rules over one file, appending findings.
/// `enabled` holds rule ids ("R1".."R13"); empty means all rules.
void run_rules(const SourceFile& file, const std::vector<std::string>& enabled,
               const TreeContext& ctx, std::vector<Finding>& out);

/// Single-file convenience: harvests a TreeContext from `file` alone.
void run_rules(const SourceFile& file, const std::vector<std::string>& enabled,
               std::vector<Finding>& out);

// Individual rules, exposed for targeted tests.
void check_r1_nondeterminism(const SourceFile& file, std::vector<Finding>& out);
void check_r2_global_state(const SourceFile& file, std::vector<Finding>& out);
void check_r3_nodiscard(const SourceFile& file, std::vector<Finding>& out);
void check_r4_narrowing(const SourceFile& file, std::vector<Finding>& out);
void check_r6_bare_throw(const SourceFile& file, std::vector<Finding>& out);
void check_r5_unordered_output(const SourceFile& file,
                               std::vector<Finding>& out);
void check_r7_raw_ofstream(const SourceFile& file, std::vector<Finding>& out);
void check_r8_layering(const SourceFile& file, std::vector<Finding>& out);
void check_r9_lock_discipline(const SourceFile& file, const TreeContext& ctx,
                              std::vector<Finding>& out);
void check_r10_hot_alloc(const SourceFile& file, std::vector<Finding>& out);
void check_r12_bare_wait(const SourceFile& file, std::vector<Finding>& out);
void check_r13_test_tempdir(const SourceFile& file,
                            std::vector<Finding>& out);

// R8 layering model, exposed for the include-graph dump in the driver.
// A module is one of the ranked src/ subsystems ("common", "device",
// "energy", "cnt", "cache", "trace", "fault", "sim", "exec") or a
// top-of-stack tree ("bench", "examples", "tools", "tests").
[[nodiscard]] int layer_rank(std::string_view module);  ///< -1 = unknown
[[nodiscard]] std::string layer_module_of_path(std::string_view path);
[[nodiscard]] std::string layer_module_of_include(std::string_view target);

}  // namespace cnt::lint
