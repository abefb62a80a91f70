// cnt-lint: in-tree determinism/invariant static analyzer.
//
//   $ cnt-lint src bench examples tests tools --exclude=tests/lint/fixtures
//   $ cnt-lint --format=json --rule=R6 src
//   $ cnt-lint --dump-include-graph=dot src > graph.dot
//
// --report-unused-suppressions is the audit mode: it reports
// `// cnt-lint:` tags that silence nothing (rule id U0), and needs every
// rule enabled. --dump-include-graph=dot exits 1 if the module-level
// include graph has a cycle.
//
// Exit codes: 0 clean, 1 findings/cycle (or unreadable inputs), 2 usage
// error. Rule catalog and suppression syntax: docs/static_analysis.md.
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "driver.hpp"

int main(int argc, char** argv) {
  cnt::lint::LintOptions opts;
  std::string format = "text";
  std::string graph_format;
  bool list_rules = false;
  std::vector<std::string> rule_ids;
  for (const auto& r : cnt::lint::rule_catalog()) rule_ids.emplace_back(r.id);
  cnt::cli::Parser cli("cnt-lint", "Check the tree for determinism and "
                                   "invariant violations.");
  cli.positional(&opts.paths, "path", "files or directories",
                 {.required = true})
      .flag(&format, "--format", "report format (default text)",
            {.choices = {"text", "json"}})
      .flag(&opts.rules, "--rule", "run only this rule (repeatable)",
            {.choices = rule_ids})
      .flag(&opts.excludes, "--exclude", "skip paths containing SUBSTR",
            {.value = "SUBSTR"})
      .flag(&list_rules, "--list-rules", "print the rule catalog and exit",
            {.standalone = true})
      .flag(&opts.report_unused, "--report-unused-suppressions",
            "report suppressions that silence nothing")
      .flag(&graph_format, "--dump-include-graph",
            "print the module include graph", {.choices = {"dot"}});
  if (const auto rc = cli.parse(argc, argv)) return *rc;
  if (list_rules) {
    for (const auto& r : cnt::lint::rule_catalog()) {
      std::cout << r.id << "  " << r.name << "  (suppress: // cnt-lint: "
                << r.suppression << ")\n    " << r.summary << "\n";
    }
    return 0;
  }
  if (opts.report_unused && !opts.rules.empty()) {
    return cli.usage_error(
        "--report-unused-suppressions needs every rule enabled; drop --rule");
  }

  if (!graph_format.empty()) {
    const cnt::lint::IncludeGraph graph =
        cnt::lint::build_include_graph(opts);
    cnt::lint::write_dot(graph, std::cout);
    for (const auto& e : graph.errors) {
      std::cerr << "cnt-lint: error: " << e << "\n";
    }
    if (!graph.cycle.empty()) {
      std::cerr << "cnt-lint: include-graph cycle:";
      for (const auto& m : graph.cycle) std::cerr << " " << m;
      std::cerr << "\n";
      return 1;
    }
    return graph.errors.empty() ? 0 : 1;
  }

  const cnt::lint::LintReport report = cnt::lint::run_lint(opts);
  if (format == "json") {
    cnt::lint::write_json(report, std::cout);
  } else {
    cnt::lint::write_text(report, std::cout);
  }
  return (report.findings.empty() && report.errors.empty()) ? 0 : 1;
}
