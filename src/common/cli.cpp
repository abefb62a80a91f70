#include "common/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>

namespace cnt::cli {

std::optional<u64> parse_u64(std::string_view text) noexcept {
  u64 v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

std::optional<double> parse_double(std::string_view text) noexcept {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

namespace {

std::string joined(const std::vector<std::string>& items, const char* sep) {
  std::string s;
  for (const auto& item : items) s.append(s.empty() ? "" : sep).append(item);
  return s;
}

bool is_rest(const Target& t) {
  return std::holds_alternative<std::vector<std::string>*>(t);
}

}  // namespace

Parser& Parser::flag(Target target, std::string name, std::string help,
                     Arg arg) {
  flags_.push_back({target, std::move(name), std::move(help), std::move(arg)});
  return *this;
}

Parser& Parser::positional(Target target, std::string name, std::string help,
                           Arg arg) {
  positionals_.push_back(
      {target, std::move(name), std::move(help), std::move(arg)});
  return *this;
}

std::optional<std::string> Parser::assign(const Entry& e,
                                          std::string_view text) const {
  const Arg& a = e.arg;
  const std::string shown = std::string("'").append(text).append("'");
  if (!a.choices.empty() &&
      std::find(a.choices.begin(), a.choices.end(), text) == a.choices.end()) {
    return "unknown " + e.name.substr(e.name.find_first_not_of('-')) + " " +
           shown + "; one of: " + joined(a.choices, ", ");
  }
  return std::visit(
      [&](auto* p) -> std::optional<std::string> {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, u64> ||
                      std::is_same_v<T, std::optional<u64>>) {
          const auto v = parse_u64(text);
          if (v && *v >= a.min && *v <= a.max) {
            *p = *v;
            return std::nullopt;
          }
          std::string want = "a whole number";
          if (a.max != std::numeric_limits<u64>::max()) {
            want += " in [" + std::to_string(a.min) + ", " +
                    std::to_string(a.max) + "]";
          } else if (a.min > 0) {
            want += " >= " + std::to_string(a.min);
          }
          return e.name + " wants " + want + ", not " + shown;
        } else if constexpr (std::is_same_v<T, double> ||
                             std::is_same_v<T, std::optional<double>>) {
          const auto v = parse_double(text);
          if (!v) return e.name + " wants a finite number, not " + shown;
          *p = *v;
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          p->emplace_back(text);
        } else if constexpr (!std::is_same_v<T, bool>) {
          *p = std::string(text);
        }
        return std::nullopt;
      },
      e.target);
}

std::optional<int> Parser::parse(int argc, const char* const* argv,
                                 std::ostream& out, std::ostream& err) const {
  std::vector<std::string_view> words;
  bool standalone = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view word = argv[i];
    if (word == "--help" || word == "-h") {
      write_help(out);
      return 0;
    }
    if (word.size() < 2 || word[0] != '-') {
      words.push_back(word);
      continue;
    }
    const usize eq = word.starts_with("--") ? word.find('=') : word.npos;
    const std::string name(word.substr(0, eq));
    const auto e = std::find_if(flags_.begin(), flags_.end(), [&](auto& f) {
      return name == f.name || name == f.arg.alias || name == f.arg.negation;
    });
    if (e == flags_.end()) {
      return usage_error("unknown option '" + std::string(word) + "'", err);
    }
    if (bool* const* b = std::get_if<bool*>(&e->target)) {
      if (eq != word.npos) {
        return usage_error("option '" + name + "' takes no value", err);
      }
      **b = name != e->arg.negation;
      standalone = standalone || (**b && e->arg.standalone);
      continue;
    }
    if (eq == word.npos && i + 1 == argc) {
      return usage_error("option '" + name + "' needs a value", err);
    }
    const auto msg =
        assign(*e, eq == word.npos ? argv[++i] : word.substr(eq + 1));
    if (msg) return usage_error(*msg, err);
  }

  usize next = 0;
  for (const Entry& e : positionals_) {
    const usize left = words.size() - next;
    const usize take = is_rest(e.target) ? left : std::min<usize>(1, left);
    if (take == 0 && e.arg.required && !standalone) {
      return usage_error("missing <" + e.name + ">", err);
    }
    for (usize k = 0; k < take; ++k) {
      if (const auto msg = assign(e, words[next++])) {
        return usage_error(*msg, err);
      }
    }
  }
  if (next < words.size()) {
    return usage_error(
        "unexpected argument '" + std::string(words[next]) + "'", err);
  }
  return std::nullopt;
}

int Parser::usage_error(const std::string& message, std::ostream& err) const {
  err << program_ << ": " << message << "\n";
  write_usage(err);
  return 2;
}

void Parser::write_usage(std::ostream& os) const {
  os << "usage: " << program_ << " [options]";
  for (const Entry& e : positionals_) {
    os << ' ' << (e.arg.required ? "<" : "[") << e.name
       << (is_rest(e.target) ? "..." : "") << (e.arg.required ? ">" : "]");
  }
  os << "\n";
}

void Parser::write_help(std::ostream& os) const {
  write_usage(os);
  os << "\n" << summary_ << "\n";
  // One line per argument: its spelling, then its help and any choices.
  auto line = [&](const std::string& left, const std::string& help,
                  const std::vector<std::string>& choices) {
    os << "  " << std::left << std::setw(26) << left << ' ' << help
       << (choices.empty() ? "" : "; one of: " + joined(choices, " "))
       << "\n";
  };
  if (!positionals_.empty()) os << "\narguments:\n";
  for (const Entry& e : positionals_) line(e.name, e.help, e.arg.choices);
  os << "\noptions:\n";
  const char* kinds[] = {"", "N", "X", "TEXT", "N", "X", "TEXT", "TEXT"};
  for (const Entry& e : flags_) {
    std::string left = e.arg.alias.empty() ? "    " : e.arg.alias + ", ";
    left.append(e.name);
    if (!e.arg.negation.empty()) left.append(", ").append(e.arg.negation);
    if (e.target.index() > 0) {  // not a bool
      left.append(" ").append(e.arg.value.empty() ? kinds[e.target.index()]
                                                  : e.arg.value);
    }
    line(left, e.help, e.arg.choices);
  }
  line("-h, --help", "print this help and exit", {});
}

}  // namespace cnt::cli
