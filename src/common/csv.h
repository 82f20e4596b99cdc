#ifndef CCDB_COMMON_CSV_H_
#define CCDB_COMMON_CSV_H_

#include <ostream>
#include <string>
#include <vector>

namespace ccdb {

/// Minimal CSV writer used by figure benches and examples to export data
/// series (one header row, then data rows). Fields containing commas,
/// quotes, or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Writes to the given stream (not owned; must outlive the writer).
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  /// Writes one row of fields.
  void WriteRow(const std::vector<std::string>& fields);

 private:
  static std::string Escape(const std::string& field);

  std::ostream& os_;
};

}  // namespace ccdb

#endif  // CCDB_COMMON_CSV_H_
