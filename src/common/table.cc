#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "common/fsio.h"

namespace clusmt {

namespace {

std::string csv_quote(const std::string& cell) {
  const bool needs_quote =
      cell.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quote) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

/// A cell is emitted as a bare token only when it matches the strict JSON
/// number grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — strtod
/// would also accept "inf"/"nan"/"0x1A", which are not valid JSON.
bool is_json_number(const std::string& cell) {
  const auto digit = [](char ch) { return ch >= '0' && ch <= '9'; };
  std::size_t i = 0;
  const std::size_t n = cell.size();
  if (i < n && cell[i] == '-') ++i;
  if (i >= n || !digit(cell[i])) return false;
  if (cell[i] == '0') {
    ++i;
  } else {
    while (i < n && digit(cell[i])) ++i;
  }
  if (i < n && cell[i] == '.') {
    ++i;
    if (i >= n || !digit(cell[i])) return false;
    while (i < n && digit(cell[i])) ++i;
  }
  if (i < n && (cell[i] == 'e' || cell[i] == 'E')) {
    ++i;
    if (i < n && (cell[i] == '+' || cell[i] == '-')) ++i;
    if (i >= n || !digit(cell[i])) return false;
    while (i < n && digit(cell[i])) ++i;
  }
  return i == n;
}

}  // namespace

std::string format_double(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

Table& Table::new_row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::add_cell(std::string value) {
  if (rows_.empty()) rows_.emplace_back();
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::add_cell(double value, int precision) {
  return add_cell(format_double(value, precision));
}

Table& Table::add_cell(std::uint64_t value) {
  return add_cell(std::to_string(value));
}

Table& Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::render_text() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c >= widths.size()) widths.resize(c + 1, 0);
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      out << (c == 0 ? "" : "  ");
      // Left-align the first column (labels), right-align the rest (numbers).
      if (c == 0) {
        out << std::left << std::setw(static_cast<int>(widths[c])) << cell;
      } else {
        out << std::right << std::setw(static_cast<int>(widths[c])) << cell;
      }
    }
    out << "\n";
  };

  emit_row(header_);
  std::size_t rule_len = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule_len += widths[c] + (c == 0 ? 0 : 2);
  }
  out << std::string(rule_len, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string Table::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) out << ',';
      out << csv_quote(cells[i]);
    }
    out << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string Table::to_json() const {
  std::ostringstream out;
  out << "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out << "  {";
    const auto& row = rows_[r];
    for (std::size_t c = 0; c < header_.size(); ++c) {
      if (c) out << ", ";
      out << json_escape(header_[c]) << ": ";
      if (c >= row.size()) {
        out << "null";
      } else {
        out << (is_json_number(row[c]) ? row[c] : json_escape(row[c]));
      }
    }
    out << (r + 1 < rows_.size() ? "},\n" : "}\n");
  }
  out << "]\n";
  return out.str();
}

bool Table::write_csv(const std::string& path) const {
  return write_file_atomic(path, to_csv());
}

bool Table::write_json(const std::string& path) const {
  return write_file_atomic(path, to_json());
}

}  // namespace clusmt
