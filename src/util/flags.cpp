// SPDX-License-Identifier: MIT
#include "util/flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace cobra {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      words_.push_back({std::string(arg), ""});
      continue;
    }
    arg.remove_prefix(2);
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      continue;
    }
    // "--name value" if the next token is not itself a flag; bare boolean
    // otherwise.
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      values_[std::string(arg)] = argv[i + 1];
      words_.push_back({argv[i + 1], std::string(arg)});
      ++i;
    } else {
      values_[std::string(arg)] = "";
    }
  }
}

bool Flags::is_switch(const std::string& name) const {
  const auto queried =
      std::find_if(queried_.begin(), queried_.end(),
                   [&name](const FlagQuery& q) { return q.name == name; });
  return queried != queried_.end() && !read_as_value_.contains(name) &&
         (queried->kind == "flag" || queried->kind == "bool");
}

const std::vector<std::string>& Flags::positionals() const {
  std::vector<std::string> current;
  for (const Word& word : words_) {
    if (word.owner.empty() || is_switch(word.owner)) {
      current.push_back(word.text);
    }
  }
  // Replaced only when a query since the last call changed the set, so
  // references into an unchanged result stay valid.
  if (current != positionals_) positionals_ = std::move(current);
  return positionals_;
}

void Flags::record_query(std::string_view name, std::string_view kind,
                         std::string fallback) const {
  for (const auto& query : queried_) {
    if (query.name == name) return;
  }
  queried_.push_back(
      {std::string(name), std::string(kind), std::move(fallback)});
}

bool Flags::has(std::string_view name) const {
  record_query(name, "flag", "");
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  consumed_[it->first] = true;
  return true;
}

std::string Flags::get(std::string_view name, std::string_view fallback) const {
  record_query(name, "string", std::string(fallback));
  const auto it = values_.find(name);
  if (it == values_.end()) return std::string(fallback);
  consumed_[it->first] = true;
  read_as_value_.insert(it->first);
  return it->second;
}

std::int64_t Flags::get_int(std::string_view name, std::int64_t fallback) const {
  record_query(name, "int", std::to_string(fallback));
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[it->first] = true;
  read_as_value_.insert(it->first);
  std::int64_t value = 0;
  const auto& text = it->second;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw std::invalid_argument("flag --" + it->first +
                                " expects an integer, got '" + text + "'");
  }
  return value;
}

double Flags::get_double(std::string_view name, double fallback) const {
  {
    char buffer[48];
    std::snprintf(buffer, sizeof buffer, "%g", fallback);
    record_query(name, "number", buffer);
  }
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[it->first] = true;
  read_as_value_.insert(it->first);
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size() || !std::isfinite(value)) {
      throw std::invalid_argument("trailing or non-finite");
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + it->first +
                                " expects a number, got '" + it->second + "'");
  }
}

bool Flags::get_bool(std::string_view name, bool fallback) const {
  record_query(name, "bool", fallback ? "true" : "false");
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[it->first] = true;
  const auto& text = it->second;
  if (text.empty()) return true;
  if (text == "1" || text == "true" || text == "yes") {
    read_as_value_.insert(it->first);
    return true;
  }
  if (text == "0" || text == "false" || text == "no") {
    read_as_value_.insert(it->first);
    return false;
  }
  // A word taken from the next argument was not meant for this switch.
  if (std::any_of(words_.begin(), words_.end(),
                  [&](const Word& w) { return w.owner == it->first; })) {
    return true;
  }
  throw std::invalid_argument("flag --" + it->first +
                              " expects a boolean, got '" + text + "'");
}

std::vector<std::string> Flags::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (const auto it = consumed_.find(name);
        it == consumed_.end() || !it->second) {
      out.push_back(name);
    }
  }
  return out;
}

void Flags::warn_unconsumed(std::ostream& os) const {
  for (const auto& name : unconsumed()) {
    os << "warning: unrecognized flag --" << name << "\n";
  }
}

void Flags::print_help(std::ostream& os) const {
  std::vector<FlagQuery> sorted = queried_;
  std::sort(sorted.begin(), sorted.end(),
            [](const FlagQuery& a, const FlagQuery& b) {
              return a.name < b.name;
            });
  for (const auto& query : sorted) {
    std::string left = "  --" + query.name;
    if (query.kind != "flag") left += " <" + query.kind + ">";
    os << left;
    for (std::size_t pad = left.size(); pad < 28; ++pad) os << ' ';
    if (query.kind == "flag") {
      os << "(boolean switch)";
    } else {
      os << "default: " << (query.fallback.empty() ? "\"\"" : query.fallback);
    }
    os << "\n";
  }
}

}  // namespace cobra
