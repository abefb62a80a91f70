// cnt-lint driver: file discovery, rule execution, report formatting.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "rules.hpp"

namespace cnt::lint {

struct LintOptions {
  std::vector<std::string> paths;     ///< files or directories to scan
  std::vector<std::string> excludes;  ///< skip paths containing any substring
  std::vector<std::string> rules;     ///< enabled rule ids; empty = all
  /// Audit mode: instead of rule findings, report `// cnt-lint:` tags
  /// that silence nothing ("U0"). Requires all rules enabled.
  bool report_unused = false;
};

struct LintReport {
  std::vector<Finding> findings;  ///< sorted by (path, line, rule)
  std::size_t files_scanned = 0;
  std::vector<std::string> errors;  ///< unreadable paths etc.
};

/// True for the extensions cnt-lint understands (.hpp/.cpp/.h/.cc/...).
[[nodiscard]] bool lintable_file(const std::string& path);

/// Lint one in-memory buffer (tests use this to avoid disk fixtures).
/// The TreeContext (R9 guards) is harvested from the buffer itself.
[[nodiscard]] std::vector<Finding> lint_buffer(
    std::string path, std::string_view content,
    const std::vector<std::string>& rules = {});

/// Walk `opts.paths`, lint every source file found, return the sorted
/// report. Directories are scanned recursively; hidden and build*
/// directories are skipped. Runs in two passes: pass 1 lexes every file
/// and harvests the TreeContext, pass 2 runs the rules -- so a
/// guarded-by annotation in a header governs its .cpp regardless of
/// scan order.
[[nodiscard]] LintReport run_lint(const LintOptions& opts);

/// Unused-suppression audit over pre-lexed files: re-runs every rule
/// with suppressions ignored, then reports each `// cnt-lint:` tag
/// that would silence no finding on its own or the following line.
/// Findings carry rule id "U0" / name "unused-suppression".
[[nodiscard]] std::vector<Finding> audit_suppressions(
    const std::vector<SourceFile>& files);

/// Module-level include graph for `--dump-include-graph` and the DAG
/// check. Nodes are R8 layer modules; edges are deduplicated
/// (includer-module, includee-module) pairs, sorted.
struct IncludeGraph {
  std::vector<std::pair<std::string, std::string>> edges;
  /// Non-empty when the module graph has a cycle: the offending module
  /// sequence, first element repeated at the end.
  std::vector<std::string> cycle;
  std::vector<std::string> errors;  ///< unreadable paths etc.
};

/// Lex `opts.paths` and aggregate the module-level include graph.
[[nodiscard]] IncludeGraph build_include_graph(const LintOptions& opts);

/// Graphviz dot rendering of the module graph, stable output: nodes
/// labeled with their layer rank, edges sorted.
void write_dot(const IncludeGraph& graph, std::ostream& os);

/// `file:line: RULE: message` per finding plus a trailing summary line.
void write_text(const LintReport& report, std::ostream& os);

/// Machine-readable: {"schema":"cnt-lint-v1","count":N,"findings":[...]}.
void write_json(const LintReport& report, std::ostream& os);

}  // namespace cnt::lint
