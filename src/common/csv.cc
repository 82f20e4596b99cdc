#include "common/csv.h"

namespace ccdb {

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) os_ << ',';
    os_ << Escape(fields[i]);
  }
  os_ << '\n';
}

std::string CsvWriter::Escape(const std::string& field) {
  const bool needs_quoting =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace ccdb
