#include "rules.hpp"

#include <algorithm>
#include <array>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace cnt::lint {

namespace {

using Tokens = std::vector<Token>;

/// Index of the punct matching `open` at `i` (must point at `open`),
/// or tokens.size() when unbalanced. Angle matching (`<`/`>`) counts a
/// `>>` token as two closers.
std::size_t match_forward(const Tokens& toks, std::size_t i,
                          std::string_view open, std::string_view close) {
  int depth = 0;
  const bool angles = (open == "<");
  for (std::size_t j = i; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.is_punct(open)) {
      ++depth;
    } else if (t.is_punct(close)) {
      if (--depth == 0) return j;
    } else if (angles && t.is_punct(">>")) {
      depth -= 2;
      if (depth <= 0) return j;
    } else if (angles && (t.is_punct(";") || t.is_punct("{"))) {
      return toks.size();  // not a template argument list after all
    }
  }
  return toks.size();
}

/// Index of the `(` matching the `)` at `i`, scanning backwards;
/// tokens.size() when unbalanced.
std::size_t match_backward(const Tokens& toks, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i + 1; j-- > 0;) {
    if (toks[j].is_punct(")")) {
      ++depth;
    } else if (toks[j].is_punct("(")) {
      if (--depth == 0) return j;
    }
  }
  return toks.size();
}

bool any_ident(const Tokens& toks, std::size_t lo, std::size_t hi,
               std::string_view name) {
  for (std::size_t j = lo; j < hi && j < toks.size(); ++j) {
    if (toks[j].is_ident(name)) return true;
  }
  return false;
}

void report(const SourceFile& file, std::uint32_t line, const RuleInfo& rule,
            std::string message, std::vector<Finding>& out) {
  if (file.suppressed(line, rule.suppression)) return;
  out.push_back(
      Finding{file.path, line, rule.id, rule.name, std::move(message)});
}

// --- brace-scope model -----------------------------------------------------
//
// R9/R10 (and guard harvesting) need to know which `{ ... }` regions are
// function bodies. The opener test walks backwards from a `{`: skip
// trailing declarator qualifiers (const/noexcept/override/final/mutable,
// a trailing return type after `->`), then require a `)` whose matching
// `(` is headed by a plain identifier (or a lambda's `]`) that is not a
// control keyword. Ctor init-lists pass via their last `(...)` member
// initializer -- fine, the recorded extent is the body braces either
// way. Braced init-lists, `= {...}`, class/namespace/enum bodies and
// control-flow blocks are all rejected at the first non-declarator
// token. Parenless lambdas `[&]{...}` are deliberately NOT separate
// bodies: a cv-wait predicate then stays in its enclosing function's
// scope, where the wait's unique_lock is visible to R9.

/// One function body: token indices of its `{` and matching `}`.
struct BodyExtent {
  std::size_t open = 0;
  std::size_t close = 0;
};

bool is_function_body_open(const Tokens& toks, std::size_t i) {
  static const std::unordered_set<std::string_view> kQualifier = {
      "const", "noexcept", "override", "final", "mutable"};
  static const std::unordered_set<std::string_view> kControl = {
      "if", "for", "while", "switch", "catch", "return"};
  bool arrow = false;     // saw `->`: tokens before it are a return type
  bool nonqual = false;   // saw tokens that are not plain qualifiers
  for (std::size_t j = i; j-- > 0;) {
    const Token& t = toks[j];
    if (t.is_punct(")")) {
      if (nonqual && !arrow) return false;
      const std::size_t open = match_backward(toks, j);
      if (open == toks.size() || open == 0) return false;
      const Token& head = toks[open - 1];
      if (head.is_punct("]")) return true;  // lambda `[..](..)`
      if (head.kind != TokKind::kIdent) return false;
      if (kControl.count(head.text) != 0) return false;
      if (head.is_ident("constexpr") && open >= 2 &&
          toks[open - 2].is_ident("if")) {
        return false;  // if constexpr (...)
      }
      return true;
    }
    if (t.kind == TokKind::kIdent) {
      if (kQualifier.count(t.text) == 0) nonqual = true;
      continue;
    }
    if (t.is_punct("->")) {
      arrow = true;
      continue;
    }
    if (t.is_punct("::") || t.is_punct("<") || t.is_punct(">") ||
        t.is_punct(">>") || t.is_punct("*") || t.is_punct("&") ||
        t.is_punct("[[") || t.is_punct("]]") || t.is_punct("[") ||
        t.is_punct("]") || t.is_punct("...")) {
      nonqual = true;
      continue;
    }
    return false;
  }
  return false;
}

/// All function-body extents, in token order. Nested (parenful-lambda)
/// bodies are listed too, after their enclosing body.
std::vector<BodyExtent> function_bodies(const Tokens& toks) {
  std::vector<BodyExtent> out;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].is_punct("{")) continue;
    if (!is_function_body_open(toks, i)) continue;
    const std::size_t close = match_forward(toks, i, "{", "}");
    if (close == toks.size()) continue;
    out.push_back(BodyExtent{i, close});
  }
  return out;
}

[[nodiscard]] std::string path_stem(std::string_view path) {
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.rfind('/');
  if (dot != std::string_view::npos &&
      (slash == std::string_view::npos || dot > slash)) {
    return std::string(path.substr(0, dot));
  }
  return std::string(path);
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"R1", "nondeterminism", "nondet-ok",
       "nondeterminism primitive outside src/common/rng.*"},
      {"R2", "global-state", "global-ok",
       "mutable namespace-scope or static state"},
      {"R3", "nodiscard", "nodiscard-ok",
       "const accessor returning non-void lacks [[nodiscard]]"},
      {"R4", "narrowing", "narrow-ok",
       "narrowing cast to a <=16-bit integer without a nearby range guard"},
      {"R5", "unordered-order", "unordered-ok",
       "iteration over an unordered container feeds output"},
      {"R6", "bare-throw", "throw-ok",
       "bare throw of std::runtime_error where cnt::Error is mandatory"},
      {"R7", "raw-ofstream", "io-ok",
       "raw std::ofstream outside src/common/io.*"},
      {"R8", "include-layering", "layer-ok",
       "#include reaches a module above the includer's layer"},
      {"R9", "lock-discipline", "guard-ok",
       "guarded-by member touched without holding the named mutex"},
      {"R10", "hot-alloc", "hot-ok",
       "allocation or string construction inside a // cnt-hot function"},
      {"R12", "bare-wait", "wait-ok",
       "bare sleep or unbounded cv wait outside the cancellation layer"},
      {"R13", "test-tempdir", "tempdir-ok",
       "TempDir() in tests/ outside tests/scratch_dir.hpp"},
  };
  return kCatalog;
}

// --- R1: nondeterminism primitives ----------------------------------------
//
// Raw entropy / wall-clock primitives make sweeps non-reproducible; all
// simulator randomness must flow through cnt::Rng (seeded xoshiro256**).
// `src/common/rng.*` itself is exempt, telemetry call sites annotate
// with `// cnt-lint: nondet-ok`.
void check_r1_nondeterminism(const SourceFile& file,
                             std::vector<Finding>& out) {
  if (file.path.find("common/rng.") != std::string::npos) return;
  static const std::unordered_set<std::string_view> kBanned = {
      "rand",          "srand",        "rand_r", "drand48",
      "lrand48",       "random_device", "system_clock"};
  const RuleInfo& rule = rule_catalog()[0];
  const Tokens& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    const bool call_like =
        i + 1 < toks.size() && toks[i + 1].is_punct("(");
    if (kBanned.count(t.text) != 0 || (t.text == "time" && call_like)) {
      report(file, t.line, rule,
             "nondeterminism primitive '" + t.text +
                 "' (route randomness through cnt::Rng / src/common/rng.*; "
                 "suppress telemetry sites with // cnt-lint: nondet-ok)",
             out);
    }
  }
}

// --- R2: mutable static / namespace-scope state ---------------------------
//
// Mutable globals are shared across ThreadPool workers and break the
// bit-identical `--jobs N` == `--jobs 1` guarantee. Triggers on
// `static` / `inline` declarations that reach a variable terminator
// without a constness keyword. Intentional globals (e.g. registries
// guarded by a mutex) annotate with `// cnt-lint: global-ok`.
void check_r2_global_state(const SourceFile& file, std::vector<Finding>& out) {
  static const std::unordered_set<std::string_view> kConstish = {
      "const", "constexpr", "constinit"};
  static const std::unordered_set<std::string_view> kNotAVariable = {
      "namespace", "using", "typedef", "friend", "struct", "class",
      "enum",      "union", "operator", "template", "thread_local"};
  const RuleInfo& rule = rule_catalog()[1];
  const Tokens& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    const bool trigger = t.is_ident("static") || t.is_ident("inline");
    if (!trigger) continue;
    // `static inline ...` / `inline static ...`: handle the pair once.
    if (i > 0 &&
        (toks[i - 1].is_ident("static") || toks[i - 1].is_ident("inline"))) {
      continue;
    }
    bool constish = false;
    bool not_a_variable = false;
    std::size_t end = toks.size();
    std::string last_ident;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      const Token& u = toks[j];
      if (u.is_punct("(")) {
        // Function declaration/definition (or paren-init; heuristic).
        not_a_variable = true;
        break;
      }
      if (u.is_punct(";") || u.is_punct("{") || u.is_punct("=")) {
        end = j;
        break;
      }
      if (u.kind == TokKind::kIdent) {
        if (kConstish.count(u.text) != 0) constish = true;
        if (kNotAVariable.count(u.text) != 0) not_a_variable = true;
        last_ident = u.text;
      }
    }
    if (constish || not_a_variable || end == toks.size()) continue;
    report(file, t.line, rule,
           "mutable static/global '" +
               (last_ident.empty() ? std::string("<unnamed>") : last_ident) +
               "' (thread-pool race hazard; make it const/constexpr, pass it "
               "explicitly, or annotate // cnt-lint: global-ok)",
           out);
  }
}

// --- R3: [[nodiscard]] on const accessors ---------------------------------
//
// Energy-ledger / journal invariants rely on read APIs whose results are
// never silently dropped: [[nodiscard]] here plus -Wunused-result at call
// sites closes the loop. Flags const-qualified member functions with a
// non-void result that lack the attribute.
void check_r3_nodiscard(const SourceFile& file, std::vector<Finding>& out) {
  const RuleInfo& rule = rule_catalog()[2];
  const Tokens& toks = file.tokens;
  static const std::unordered_set<std::string_view> kAfterConst = {
      ";", "{", "&", "&&", "=", "->"};
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].is_punct(")") || !toks[i + 1].is_ident("const")) continue;
    // The token after `const` must continue a member-function declarator.
    if (i + 2 >= toks.size()) continue;
    const Token& after = toks[i + 2];
    const bool declarator_tail =
        after.is_ident("noexcept") || after.is_ident("override") ||
        after.is_ident("final") ||
        (after.kind == TokKind::kPunct && kAfterConst.count(after.text) != 0);
    if (!declarator_tail) continue;

    const std::size_t open = match_backward(toks, i);
    if (open == toks.size() || open == 0) continue;
    const Token& name = toks[open - 1];
    if (name.kind != TokKind::kIdent) {
      // `operator()(..)` / pointer-to-member types: skip unless a plain
      // operator, which is exempt anyway.
      continue;
    }
    // Conversion/overloaded operators are exempt (comparators etc.).
    bool is_operator = false;
    for (std::size_t back = 1; back <= 3 && back < open; ++back) {
      if (toks[open - 1 - back].is_ident("operator")) is_operator = true;
    }
    if (is_operator || name.text == "operator") continue;
    // Out-of-class definition: the in-class declaration carries the
    // attribute.
    if (open >= 2 && toks[open - 2].is_punct("::")) continue;

    // Return-type region: walk back to the previous declaration boundary.
    std::size_t decl_start = 0;
    bool boundary_found = false;
    for (std::size_t j = open - 1; j-- > 0;) {
      const Token& u = toks[j];
      if (u.is_punct(";") || u.is_punct("{") || u.is_punct("}") ||
          u.is_punct(":")) {
        decl_start = j + 1;
        boundary_found = true;
        break;
      }
    }
    if (!boundary_found) decl_start = 0;
    const std::size_t region_len = (open - 1) - decl_start;
    if (region_len == 0) continue;  // no return type: not an accessor
    if (any_ident(toks, decl_start, open - 1, "nodiscard")) continue;
    if (any_ident(toks, decl_start, open - 1, "using") ||
        any_ident(toks, decl_start, open - 1, "typedef") ||
        any_ident(toks, decl_start, open - 1, "friend")) {
      continue;
    }
    // `void get() const` -- nothing to discard (unless it returns void*).
    if (any_ident(toks, decl_start, open - 1, "void")) {
      bool pointer = false;
      for (std::size_t j = decl_start; j < open - 1; ++j) {
        if (toks[j].is_punct("*")) pointer = true;
      }
      if (!pointer) continue;
    }
    // `auto f() const -> void` -- trailing void return.
    if (after.is_punct("->") ||
        (i + 3 < toks.size() && after.is_ident("noexcept") &&
         toks[i + 3].is_punct("->"))) {
      const std::size_t arrow = after.is_punct("->") ? i + 2 : i + 3;
      if (arrow + 1 < toks.size() && toks[arrow + 1].is_ident("void")) {
        continue;
      }
    }
    report(file, name.line, rule,
           "const accessor '" + name.text +
               "' returns a value but is not [[nodiscard]] (annotate it, or "
               "suppress with // cnt-lint: nodiscard-ok)",
           out);
  }
}

// --- R4: narrowing casts on energy/count types ----------------------------
//
// Silent truncation to u8/u16 corrupted trace sizes once (trace_io, PR 3);
// C-style and functional narrowing casts are banned outright, and a
// static_cast to a <=16-bit integer must sit within a few lines of a
// visible range guard (assert/clamp/min/mask/branch) or carry
// `// cnt-lint: narrow-ok`.
void check_r4_narrowing(const SourceFile& file, std::vector<Finding>& out) {
  static const std::unordered_set<std::string_view> kNarrow = {
      "u8",     "u16",     "i8",      "i16",    "int8_t", "uint8_t",
      "int16_t", "uint16_t", "char",   "short"};
  static const std::unordered_set<std::string_view> kGuardIdent = {
      "assert", "clamp",  "min",   "max",    "if",     "throw",
      "abort",  "CHECK",  "DCHECK", "Expects", "Ensures"};
  constexpr std::uint32_t kGuardWindow = 6;  // lines above the cast
  const RuleInfo& rule = rule_catalog()[3];
  const Tokens& toks = file.tokens;

  auto guarded_near = [&](std::uint32_t line) {
    const std::uint32_t lo = line > kGuardWindow ? line - kGuardWindow : 1;
    for (std::size_t j = 0; j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (t.line < lo) continue;
      if (t.line > line) break;
      if (t.kind == TokKind::kIdent && kGuardIdent.count(t.text) != 0) {
        return true;
      }
      if (t.is_punct("%") || t.is_punct(">>")) return true;
      if (t.is_punct("&") && j + 1 < toks.size() &&
          toks[j + 1].kind == TokKind::kNumber) {
        return true;  // mask, e.g. `x & 0xff`
      }
    }
    return false;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    // static_cast<NARROW>( ... ) without a nearby guard.
    if (t.is_ident("static_cast") && i + 4 < toks.size() &&
        toks[i + 1].is_punct("<") && toks[i + 2].kind == TokKind::kIdent &&
        kNarrow.count(toks[i + 2].text) != 0 && toks[i + 3].is_punct(">") &&
        toks[i + 4].is_punct("(")) {
      // A sole literal argument cannot overflow at runtime:
      // static_cast<u8>(0) needs no guard.
      const bool literal_arg = i + 6 < toks.size() &&
                               toks[i + 5].kind == TokKind::kNumber &&
                               toks[i + 6].is_punct(")");
      if (!literal_arg && !guarded_near(t.line)) {
        report(file, t.line, rule,
               "static_cast to '" + toks[i + 2].text +
                   "' with no visible range guard within " +
                   std::to_string(kGuardWindow) +
                   " lines (add an assert/clamp/mask, or annotate "
                   "// cnt-lint: narrow-ok)",
               out);
      }
      continue;
    }
    if (t.kind != TokKind::kIdent || kNarrow.count(t.text) == 0) continue;
    const bool prev_is_angle = i > 0 && toks[i - 1].is_punct("<");
    // Functional cast `u8(expr)`; the template-argument position
    // (`static_cast<u8>(..)`, `vector<u8>`) is excluded above/below.
    if (!prev_is_angle && i + 1 < toks.size() && toks[i + 1].is_punct("(")) {
      report(file, t.line, rule,
             "functional-style narrowing cast '" + t.text +
                 "(...)' (use static_cast with a range guard, or brace-init "
                 "which rejects narrowing)",
             out);
      continue;
    }
    // C-style cast `(u8)expr` / `(unsigned char)expr`.
    const std::size_t type_start =
        (i > 0 && (toks[i - 1].is_ident("unsigned") ||
                   toks[i - 1].is_ident("signed")))
            ? i - 1
            : i;
    if (type_start > 0 && toks[type_start - 1].is_punct("(") &&
        i + 1 < toks.size() && toks[i + 1].is_punct(")") &&
        i + 2 < toks.size()) {
      const Token& v = toks[i + 2];
      const bool value_like = v.kind == TokKind::kIdent ||
                              v.kind == TokKind::kNumber ||
                              v.kind == TokKind::kString || v.is_punct("(");
      // `sizeof(u8)`, `alignof(u8)`: type traits, not casts.
      const bool trait = type_start >= 2 &&
                         (toks[type_start - 2].is_ident("sizeof") ||
                          toks[type_start - 2].is_ident("alignof"));
      if (value_like && !trait &&
          !(v.kind == TokKind::kIdent &&
            (v.is_ident("unsigned") || v.is_ident("signed")))) {
        report(file, t.line, rule,
               "C-style narrowing cast to '" + t.text +
                   "' (use static_cast with a range guard)",
               out);
      }
    }
  }
}

// --- R5: unordered-container iteration feeding output ---------------------
//
// unordered_{map,set} iteration order is implementation-defined; feeding
// it into CSV/JSONL/table output silently breaks byte-identical runs.
// Tracks variables (and `using` aliases) of unordered types declared in
// the same file and flags range-/iterator-for loops over them whose body
// writes output.
void check_r5_unordered_output(const SourceFile& file,
                               std::vector<Finding>& out) {
  static const std::unordered_set<std::string_view> kUnorderedTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  static const std::unordered_set<std::string_view> kOutputIdent = {
      "add_row", "write",  "print", "printf", "fprintf",
      "emit",    "append", "dump",  "push_line"};
  const RuleInfo& rule = rule_catalog()[4];
  const Tokens& toks = file.tokens;

  // Pass 1: unordered type names (std ones + file-local aliases) and
  // variables declared with them.
  std::unordered_set<std::string> type_names;
  for (const std::string_view t : kUnorderedTypes) {
    type_names.emplace(t);
  }
  std::unordered_set<std::string> vars;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].is_ident("using") && i + 2 < toks.size() &&
        toks[i + 1].kind == TokKind::kIdent && toks[i + 2].is_punct("=")) {
      for (std::size_t j = i + 3; j < toks.size() && !toks[j].is_punct(";");
           ++j) {
        if (toks[j].kind == TokKind::kIdent &&
            type_names.count(toks[j].text) != 0) {
          type_names.insert(toks[i + 1].text);
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        type_names.count(toks[i].text) == 0) {
      continue;
    }
    std::size_t after = i + 1;
    if (after < toks.size() && toks[after].is_punct("<")) {
      const std::size_t close = match_forward(toks, after, "<", ">");
      if (close == toks.size()) continue;
      after = close + 1;
    }
    while (after < toks.size() &&
           (toks[after].is_punct("&") || toks[after].is_punct("*") ||
            toks[after].is_ident("const"))) {
      ++after;
    }
    if (after < toks.size() && toks[after].kind == TokKind::kIdent &&
        !toks[after].is_ident("const")) {
      vars.insert(toks[after].text);
    }
  }
  if (vars.empty()) return;

  // Pass 2: for-loops over those variables whose body emits output.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].is_ident("for") || !toks[i + 1].is_punct("(")) continue;
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close == toks.size()) continue;

    std::string iterated;
    // Range-for: `for (decl : expr)` with `:` at depth 1.
    int depth = 0;
    std::size_t colon = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (toks[j].is_punct("(")) ++depth;
      if (toks[j].is_punct(")")) --depth;
      if (depth == 1 && toks[j].is_punct(":")) {
        colon = j;
        break;
      }
    }
    if (colon != 0) {
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind == TokKind::kIdent && vars.count(toks[j].text) != 0) {
          iterated = toks[j].text;
          break;
        }
      }
    } else {
      // Iterator-for: `for (auto it = m.begin(); ...)`.
      for (std::size_t j = i + 2; j + 2 < close; ++j) {
        if (toks[j].kind == TokKind::kIdent && vars.count(toks[j].text) != 0 &&
            toks[j + 1].is_punct(".") && toks[j + 2].is_ident("begin")) {
          iterated = toks[j].text;
          break;
        }
      }
    }
    if (iterated.empty()) continue;

    std::size_t body_end;
    if (close + 1 < toks.size() && toks[close + 1].is_punct("{")) {
      body_end = match_forward(toks, close + 1, "{", "}");
    } else {
      body_end = close + 1;
      while (body_end < toks.size() && !toks[body_end].is_punct(";")) {
        ++body_end;
      }
    }
    bool writes_output = false;
    for (std::size_t j = close + 1; j < body_end && j < toks.size(); ++j) {
      if (toks[j].is_punct("<<") ||
          (toks[j].kind == TokKind::kIdent &&
           kOutputIdent.count(toks[j].text) != 0)) {
        writes_output = true;
        break;
      }
    }
    if (!writes_output) continue;
    report(file, toks[i].line, rule,
           "iteration over unordered container '" + iterated +
               "' feeds output; order is unspecified -- collect and sort "
               "keys first (or annotate // cnt-lint: unordered-ok)",
           out);
  }
}

// --- R6: bare std::runtime_error in taxonomy-migrated subsystems ----------
//
// src/common, src/trace and src/exec report failures through the
// structured taxonomy (cnt::Error / cnt::ValueError, common/error.hpp)
// so every message carries what/where/hint. A bare
// `throw std::runtime_error(...)` there loses all three fields and
// regresses docs/error_handling.md; deliberate exceptions annotate with
// `// cnt-lint: throw-ok`. Other directories (examples, benches, tests)
// are out of scope.
void check_r6_bare_throw(const SourceFile& file, std::vector<Finding>& out) {
  const bool in_scope = file.path.find("src/common") != std::string::npos ||
                        file.path.find("src/trace") != std::string::npos ||
                        file.path.find("src/exec") != std::string::npos;
  if (!in_scope) return;
  const RuleInfo& rule = rule_catalog()[5];
  const Tokens& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].is_ident("throw")) continue;
    std::size_t j = i + 1;
    if (j + 1 < toks.size() && toks[j].is_ident("std") &&
        toks[j + 1].is_punct("::")) {
      j += 2;
    }
    if (j + 1 < toks.size() && toks[j].is_ident("runtime_error") &&
        toks[j + 1].is_punct("(")) {
      report(file, toks[i].line, rule,
             "bare 'throw std::runtime_error' in a taxonomy-migrated "
             "subsystem; throw cnt::Error with .at()/.hint() instead "
             "(common/error.hpp), or annotate // cnt-lint: throw-ok",
             out);
    }
  }
}

// --- R7: raw std::ofstream outside the durable-I/O layer ------------------
//
// std::ofstream reports nothing on a failed write and nothing on a failed
// close: an artifact written through it can be silently truncated by a
// full disk and still parse (docs/crash_consistency.md). Every writer of
// a durable artifact must go through cnt::io (DurableFile for
// incremental journals, AtomicFileWriter for publish-once files), which
// is why the wrapper module itself is the only exemption. Deliberate
// uses -- tests fabricating corrupt inputs, throwaway debug dumps --
// annotate with `// cnt-lint: io-ok`.
void check_r7_raw_ofstream(const SourceFile& file, std::vector<Finding>& out) {
  if (file.path.find("common/io.") != std::string::npos) return;
  const RuleInfo& rule = rule_catalog()[6];
  const Tokens& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].is_ident("ofstream")) continue;
    report(file, toks[i].line, rule,
           "raw std::ofstream bypasses the durable-I/O layer; write "
           "artifacts through io::AtomicFileWriter or io::DurableFile "
           "(common/io.hpp), or annotate // cnt-lint: io-ok",
           out);
  }
}

// --- R8: include-layering DAG ---------------------------------------------
//
// The simulator's modules form a strict layering (docs/DESIGN.md):
//
//   layer 0  common                      (types, rng, io, error, ...)
//   layer 1  device, energy, cnt         (physics + encoding kernels)
//   layer 2  cache                       (functional arrays)
//   layer 3  trace, fault                (workloads, injection)
//   layer 4  sim                         (runners, sweeps)
//   layer 5  exec                        (thread pool, engine)
//   layer 6  bench, examples, tools, tests  (top of stack)
//
// A file may include only modules at or below its own layer, and
// src/common may include nothing but itself: that keeps the include
// graph a DAG whose edges all point downwards, so a layer can be built,
// tested and reasoned about without the layers above it. Interfaces
// needed "upwards" are inverted instead (e.g. cnt/direction_hook.hpp
// lets the encoding policy talk to the fault campaign without seeing
// fault headers). Deliberate violations annotate `// cnt-lint: layer-ok`
// on the include line.

namespace {

struct LayerModule {
  std::string_view name;
  int rank;
};

constexpr std::array<LayerModule, 13> kLayers = {{
    {"common", 0},
    {"device", 1},
    {"energy", 1},
    {"cnt", 1},
    {"cache", 2},
    {"trace", 3},
    {"fault", 3},
    {"sim", 4},
    {"exec", 5},
    {"bench", 6},
    {"examples", 6},
    {"tools", 6},
    {"tests", 6},
}};

/// True when `path` contains `dir` as a whole path component sequence,
/// i.e. "<prefix>/dir/" or "dir/" at the start.
[[nodiscard]] bool has_component(std::string_view path, std::string_view dir) {
  const std::string needle = std::string(dir) + "/";
  std::size_t pos = path.find(needle);
  while (pos != std::string_view::npos) {
    if (pos == 0 || path[pos - 1] == '/') return true;
    pos = path.find(needle, pos + 1);
  }
  return false;
}

}  // namespace

int layer_rank(std::string_view module) {
  for (const LayerModule& m : kLayers) {
    if (m.name == module) return m.rank;
  }
  return -1;
}

std::string layer_module_of_path(std::string_view path) {
  for (const LayerModule& m : kLayers) {
    if (m.rank == 6) continue;  // src modules need the src/ prefix
    if (has_component(path, "src") &&
        path.find("src/" + std::string(m.name) + "/") !=
            std::string_view::npos) {
      return std::string(m.name);
    }
  }
  for (const LayerModule& m : kLayers) {
    if (m.rank == 6 && has_component(path, m.name)) {
      return std::string(m.name);
    }
  }
  return "";
}

std::string layer_module_of_include(std::string_view target) {
  const std::size_t slash = target.find('/');
  if (slash == std::string_view::npos) return "";
  const std::string_view first = target.substr(0, slash);
  const int rank = layer_rank(first);
  if (rank < 0 || rank == 6) return "";  // only src modules are targets
  return std::string(first);
}

void check_r8_layering(const SourceFile& file, std::vector<Finding>& out) {
  const RuleInfo& rule = rule_catalog()[7];
  const std::string from = layer_module_of_path(file.path);
  const int from_rank = layer_rank(from);
  if (from_rank < 0) return;  // outside the ranked tree
  for (const IncludeDirective& inc : file.includes) {
    const std::string to = layer_module_of_include(inc.target);
    if (to.empty()) continue;  // relative / third-party include
    const int to_rank = layer_rank(to);
    if (from == "common" && to != "common") {
      report(file, inc.line, rule,
             "src/common must not include other src modules, but includes \"" +
                 inc.target +
                 "\" (move the shared type down into common/, or annotate "
                 "// cnt-lint: layer-ok)",
             out);
    } else if (to_rank > from_rank) {
      report(file, inc.line, rule,
             "include of \"" + inc.target + "\" reaches layer-" +
                 std::to_string(to_rank) + " module '" + to + "' from layer-" +
                 std::to_string(from_rank) + " module '" + from +
                 "' (invert the dependency with an interface, or annotate "
                 "// cnt-lint: layer-ok)",
             out);
    }
  }
}

// --- R9: lock discipline on guarded-by members ----------------------------
//
// Shared state in the execution engine is documented with
// `// cnt-lint: guarded-by(<mutex>)` on the member's declaration (same
// line or the line above). R9 then enforces the documentation: every
// member-ish use of that name (trailing-underscore identifier, or one
// reached via `.`/`->`) inside a function body must have a
// lock_guard/unique_lock/scoped_lock naming that mutex declared in an
// enclosing scope of the same body. The model is lexical, per file:
// annotations on class members govern the declaring header and its
// paired .cpp (same path stem); annotations inside a function body
// govern that body only. Deliberately unlocked uses (e.g. reads after
// all workers joined) annotate `// cnt-lint: guard-ok`.
void check_r9_lock_discipline(const SourceFile& file, const TreeContext& ctx,
                              std::vector<Finding>& out) {
  if (file.path.find("src/") == std::string::npos) return;
  const std::string stem = path_stem(file.path);
  std::vector<const GuardEntry*> guards;
  for (const GuardEntry& g : ctx.guards) {
    if (g.local ? (g.path == file.path) : (g.stem == stem)) {
      guards.push_back(&g);
    }
  }
  if (guards.empty()) return;

  static const std::unordered_set<std::string_view> kLockTypes = {
      "lock_guard", "unique_lock", "scoped_lock"};
  const RuleInfo& rule = rule_catalog()[8];
  const Tokens& toks = file.tokens;
  const std::vector<BodyExtent> bodies = function_bodies(toks);
  std::unordered_map<std::size_t, std::size_t> nested;  // open -> close
  for (const BodyExtent& b : bodies) nested.emplace(b.open, b.close);

  std::unordered_set<std::string> reported;  // "line:member" dedup
  for (const BodyExtent& b : bodies) {
    int depth = 1;
    std::vector<std::pair<int, std::string>> locked;  // (decl depth, name)
    for (std::size_t i = b.open + 1; i < b.close; ++i) {
      // A nested parenful lambda is its own body: scan it in its own
      // pass (it may outlive the locks held here).
      const auto child = nested.find(i);
      if (child != nested.end()) {
        i = child->second;
        continue;
      }
      const Token& t = toks[i];
      if (t.is_punct("{")) {
        ++depth;
        continue;
      }
      if (t.is_punct("}")) {
        --depth;
        while (!locked.empty() && locked.back().first > depth) {
          locked.pop_back();
        }
        continue;
      }
      if (t.kind != TokKind::kIdent) continue;

      // Lock declaration: `std::lock_guard[<...>] name(args...)`; every
      // identifier in the args is treated as locked, so `lk(r.mu)`
      // covers both `r` and `mu` spellings.
      if (kLockTypes.count(t.text) != 0) {
        std::size_t j = i + 1;
        if (j < b.close && toks[j].is_punct("<")) {
          const std::size_t close_angle = match_forward(toks, j, "<", ">");
          if (close_angle != toks.size()) j = close_angle + 1;
        }
        if (j + 1 < b.close && toks[j].kind == TokKind::kIdent &&
            toks[j + 1].is_punct("(")) {
          const std::size_t close_paren = match_forward(toks, j + 1, "(", ")");
          if (close_paren != toks.size()) {
            for (std::size_t k = j + 2; k < close_paren; ++k) {
              if (toks[k].kind == TokKind::kIdent) {
                locked.emplace_back(depth, toks[k].text);
              }
            }
            i = close_paren;
          }
        }
        continue;
      }

      for (const GuardEntry* g : guards) {
        if (t.text != g->member) continue;
        if (t.line == g->decl_line && file.path == g->path) continue;
        if (g->local &&
            (t.line < g->scope_first_line || t.line > g->scope_last_line)) {
          continue;
        }
        // Member guards only bind member-ish uses (trailing underscore
        // or `.`/`->` access) so an unrelated local sharing the name in
        // the paired file is not captured. A local guard is unambiguous
        // inside its own extent and binds every use.
        const bool memberish =
            g->local || (!t.text.empty() && t.text.back() == '_') ||
            (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("->"));
        if (!memberish) continue;
        bool held = false;
        for (const auto& [d, name] : locked) {
          if (name == g->mutex_name) {
            held = true;
            break;
          }
        }
        if (!held) {
          const std::string key =
              std::to_string(t.line) + ":" + g->member;
          if (reported.insert(key).second) {
            report(file, t.line, rule,
                   "'" + g->member + "' is guarded-by(" + g->mutex_name +
                       ") but no lock on '" + g->mutex_name +
                       "' is held in an enclosing scope (take a "
                       "lock_guard/unique_lock, or annotate "
                       "// cnt-lint: guard-ok)",
                   out);
          }
        }
        break;
      }
    }
  }
}

// --- R10: allocation ban in // cnt-hot functions --------------------------
//
// The data-oriented hot path (docs/performance.md) must not allocate:
// a single push_back in the probe loop re-introduces the malloc traffic
// the scratch buffers exist to avoid. Functions whose definition follows
// a `// cnt-hot` marker (within a few lines, so the marker sits above
// the signature) are scanned for operator new, make_unique/make_shared,
// growth calls (push_back/emplace_back/resize/reserve), std::to_string
// and std::string construction. Throw statements are exempt: an error
// path that allocates its message is fine, it is off the hot path by
// definition. Cold setup inside a hot function annotates
// `// cnt-lint: hot-ok`.
void check_r10_hot_alloc(const SourceFile& file, std::vector<Finding>& out) {
  if (file.hot_lines.empty()) return;
  constexpr std::uint32_t kMarkerWindow = 12;  // lines marker -> body `{`
  static const std::unordered_set<std::string_view> kBannedCalls = {
      "make_unique", "make_shared", "push_back", "emplace_back",
      "resize",      "reserve",     "to_string"};
  const RuleInfo& rule = rule_catalog()[9];
  const Tokens& toks = file.tokens;
  const std::vector<BodyExtent> bodies = function_bodies(toks);

  for (const std::uint32_t hot : file.hot_lines) {
    const BodyExtent* body = nullptr;
    for (const BodyExtent& b : bodies) {
      const std::uint32_t open_line = toks[b.open].line;
      if (open_line >= hot && open_line <= hot + kMarkerWindow) {
        body = &b;
        break;
      }
    }
    if (body == nullptr) continue;  // dangling marker: nothing to scan

    for (std::size_t i = body->open + 1; i < body->close; ++i) {
      const Token& t = toks[i];
      // Throw statements may allocate: skip to the terminating `;`.
      if (t.is_ident("throw")) {
        int nest = 0;
        while (i < body->close) {
          const Token& u = toks[i];
          if (u.is_punct("(") || u.is_punct("{")) ++nest;
          if (u.is_punct(")") || u.is_punct("}")) --nest;
          if (u.is_punct(";") && nest <= 0) break;
          ++i;
        }
        continue;
      }
      if (t.kind != TokKind::kIdent) continue;
      const bool call_like = i + 1 < toks.size() &&
                             (toks[i + 1].is_punct("(") ||
                              toks[i + 1].is_punct("<") ||
                              toks[i + 1].is_punct("{"));
      if (t.text == "new") {
        report(file, t.line, rule,
               "operator new inside a // cnt-hot function (preallocate in "
               "setup, or annotate // cnt-lint: hot-ok)",
               out);
        continue;
      }
      if (kBannedCalls.count(t.text) != 0 && call_like) {
        report(file, t.line, rule,
               "'" + t.text +
                   "' inside a // cnt-hot function may allocate (size "
                   "scratch buffers in setup, or annotate "
                   "// cnt-lint: hot-ok)",
               out);
        continue;
      }
      if (t.text == "string" && i + 1 < toks.size() &&
          (toks[i + 1].is_punct("(") || toks[i + 1].is_punct("{") ||
           toks[i + 1].kind == TokKind::kIdent)) {
        report(file, t.line, rule,
               "std::string construction inside a // cnt-hot function "
               "(use string_view / preallocated buffers, or annotate "
               "// cnt-lint: hot-ok)",
               out);
      }
    }
  }
}

// --- context harvesting ----------------------------------------------------

void harvest_context(const SourceFile& file, TreeContext& ctx) {
  const Tokens& toks = file.tokens;

  // guarded-by annotations: resolve each to the declaration it covers
  // (tokens on the marker's line, else the first tokens below -- the
  // marker-above-the-declaration style). The guarded name is the first
  // identifier followed by a declarator terminator (`=`, `;`, `{`, `[`),
  // which skips over type names and template arguments.
  if (file.guarded_by.empty()) return;
  const std::vector<BodyExtent> bodies = function_bodies(toks);
  for (const GuardAnnotation& ann : file.guarded_by) {
    std::size_t first = toks.size();
    std::uint32_t decl_line = 0;
    for (std::size_t pass = 0; pass < 2 && first == toks.size(); ++pass) {
      for (std::size_t i = 0; i < toks.size(); ++i) {
        const bool match = pass == 0 ? toks[i].line == ann.line
                                     : toks[i].line > ann.line;
        if (match) {
          first = i;
          decl_line = toks[i].line;
          break;
        }
      }
    }
    if (first == toks.size()) continue;  // annotation at end of file

    std::string member;
    std::size_t member_tok = toks.size();
    for (std::size_t i = first;
         i + 1 < toks.size() && toks[i].line == decl_line; ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      const Token& next = toks[i + 1];
      if (next.is_punct("=") || next.is_punct(";") || next.is_punct("{") ||
          next.is_punct("[")) {
        member = toks[i].text;
        member_tok = i;
        break;
      }
    }
    if (member.empty()) continue;  // not a declaration we understand

    GuardEntry entry;
    entry.member = member;
    entry.mutex_name = ann.mutex_name;
    entry.path = file.path;
    entry.stem = path_stem(file.path);
    entry.decl_line = decl_line;
    // Innermost function body containing the declaration, if any: the
    // guard is then local to that body's extent.
    for (const BodyExtent& b : bodies) {
      if (member_tok > b.open && member_tok < b.close) {
        entry.local = true;
        entry.scope_first_line = toks[b.open].line;
        entry.scope_last_line = toks[b.close].line;
      }
    }
    ctx.guards.push_back(std::move(entry));
  }
}

// --- R12: bare blocking waits ---------------------------------------------
//
// Every blocking pause in the tree must be interruptible
// (docs/robustness.md): a thread parked in std::this_thread::sleep_for
// or an unbounded condition-variable wait() outlives cancellation, the
// job watchdog and SIGINT alike. Pauses go through
// cancel::Token::wait_ms (sliced; wakes immediately on cancel()) or a
// *bounded* wait_for/wait_until whose enclosing loop re-checks a stop
// flag -- those are different identifiers and stay legal.
// src/common/cancel.* and src/common/failpoint.* implement the
// primitive and are exempt; deliberately bounded sleeps (syscall-retry
// backoff, test pacing) annotate `// cnt-lint: wait-ok`.
void check_r12_bare_wait(const SourceFile& file, std::vector<Finding>& out) {
  if (file.path.find("common/cancel.") != std::string::npos ||
      file.path.find("common/failpoint.") != std::string::npos) {
    return;
  }
  const RuleInfo& rule = rule_catalog()[10];
  const Tokens& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "sleep_for" || t.text == "sleep_until") {
      report(file, t.line, rule,
             "bare '" + t.text +
                 "' cannot be interrupted by cancellation; pause via "
                 "cancel::Token::wait_ms (common/cancel.hpp) or annotate "
                 "a deliberately bounded sleep // cnt-lint: wait-ok",
             out);
      continue;
    }
    // `cv.wait(...)` / `cv_->wait(...)`: unbounded condition-variable
    // wait, recognized by a cv-ish receiver identifier so unrelated
    // wait() members stay out of scope.
    if (t.text == "wait" && i >= 2 && i + 1 < toks.size() &&
        toks[i + 1].is_punct("(") &&
        (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("->"))) {
      const Token& recv = toks[i - 2];
      const bool cv_like = recv.kind == TokKind::kIdent &&
                           (recv.text.find("cv") != std::string::npos ||
                            recv.text.find("cond") != std::string::npos);
      if (cv_like) {
        report(file, t.line, rule,
               "unbounded condition-variable wait on '" + recv.text +
                   "' can park forever; use a bounded wait_for/wait_until "
                   "in a re-checking loop or cancel::Token::wait_ms, or "
                   "annotate // cnt-lint: wait-ok",
               out);
      }
    }
  }
}

// --- R13: test files outside the per-test scratch directory -------------
//
// Tests write files only inside tests/scratch_dir.hpp's per-test
// directory (<TempDir>/<suite>.<test>.<pid>/). A path built on
// ::testing::TempDir() directly is shared by every test process of a
// parallel ctest run and by two build trees testing at once, so one test
// can read or delete another's files. Scoped to tests/; scratch_dir.hpp
// is the one file that may call it.
void check_r13_test_tempdir(const SourceFile& file,
                            std::vector<Finding>& out) {
  if (!has_component(file.path, "tests") ||
      file.path.ends_with("tests/scratch_dir.hpp")) {
    return;
  }
  const RuleInfo& rule = rule_catalog()[11];
  const Tokens& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].is_ident("TempDir") || !toks[i + 1].is_punct("(")) continue;
    report(file, toks[i].line, rule,
           "TempDir() is shared by every test process; build paths from a "
           "test::ScratchDir (tests/scratch_dir.hpp), or annotate "
           "// cnt-lint: tempdir-ok",
           out);
  }
}

void run_rules(const SourceFile& file, const std::vector<std::string>& enabled,
               const TreeContext& ctx, std::vector<Finding>& out) {
  auto on = [&](std::string_view id) {
    return enabled.empty() ||
           std::find(enabled.begin(), enabled.end(), id) != enabled.end();
  };
  if (on("R1")) check_r1_nondeterminism(file, out);
  if (on("R2")) check_r2_global_state(file, out);
  if (on("R3")) check_r3_nodiscard(file, out);
  if (on("R4")) check_r4_narrowing(file, out);
  if (on("R5")) check_r5_unordered_output(file, out);
  if (on("R6")) check_r6_bare_throw(file, out);
  if (on("R7")) check_r7_raw_ofstream(file, out);
  if (on("R8")) check_r8_layering(file, out);
  if (on("R9")) check_r9_lock_discipline(file, ctx, out);
  if (on("R10")) check_r10_hot_alloc(file, out);
  if (on("R12")) check_r12_bare_wait(file, out);
  if (on("R13")) check_r13_test_tempdir(file, out);
}

void run_rules(const SourceFile& file, const std::vector<std::string>& enabled,
               std::vector<Finding>& out) {
  TreeContext ctx;
  harvest_context(file, ctx);
  run_rules(file, enabled, ctx, out);
}

}  // namespace cnt::lint
