// Results table: every bench and example builds its rows here once and
// renders them as aligned text for the terminal, CSV for re-plotting, or
// JSON (bench/golden/ holds JSON renderings that CI compares byte for byte).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace clusmt {

/// Header plus rows of string cells. Numeric helpers format with fixed
/// precision. Rows may be added incrementally and may be shorter than the
/// header; every rendering computes its layout over the full contents.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row. Subsequent add_cell calls append to it.
  Table& new_row();
  Table& add_cell(std::string value);
  Table& add_cell(double value, int precision = 3);
  Table& add_cell(std::uint64_t value);

  /// Convenience: append a full row at once.
  Table& add_row(std::vector<std::string> cells);

  [[nodiscard]] const std::vector<std::string>& header() const noexcept {
    return header_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows()
      const noexcept {
    return rows_;
  }

  /// Column-aligned text: first column left-aligned, the rest right-aligned,
  /// a dashed rule under the header.
  [[nodiscard]] std::string render_text() const;

  /// Header + rows, RFC-4180 quoting.
  [[nodiscard]] std::string to_csv() const;

  /// The rows as a JSON array of objects. Keys follow header order (stable
  /// column order) and every object carries every header key: a row shorter
  /// than the header pads the missing trailing columns with null. Cells that
  /// match the strict JSON number grammar are emitted unquoted, everything
  /// else ("nan", "inf", "12%") as JSON strings.
  [[nodiscard]] std::string to_json() const;

  /// Write to_csv()/to_json() atomically (write-temp-then-rename via
  /// common/fsio.h): on failure the previous file survives untouched, and a
  /// killed process never leaves a truncated document behind.
  bool write_csv(const std::string& path) const;
  bool write_json(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helper: fixed-precision double as string.
[[nodiscard]] std::string format_double(double value, int precision = 3);

}  // namespace clusmt
