#include "storage/csv.h"

#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "common/error.h"
#include "common/strings.h"

namespace ysmart {

namespace {

/// Split one CSV line honoring double-quote quoting with "" escapes.
/// Returns false at end of input.
bool read_record(std::istream& in, char sep, std::vector<std::string>& fields,
                 std::vector<bool>& quoted) {
  fields.clear();
  quoted.clear();
  std::string line;
  if (!std::getline(in, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();

  std::string cur;
  bool cur_quoted = false;
  bool in_quotes = false;
  std::size_t i = 0;
  while (true) {
    if (i >= line.size()) {
      if (in_quotes) {
        // Embedded newline inside a quoted field: continue on next line.
        std::string next;
        if (!std::getline(in, next))
          throw ExecError("csv: unterminated quoted field");
        if (!next.empty() && next.back() == '\r') next.pop_back();
        cur.push_back('\n');
        line = std::move(next);
        i = 0;
        continue;
      }
      fields.push_back(std::move(cur));
      quoted.push_back(cur_quoted);
      return true;
    }
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      cur.push_back(c);
      ++i;
      continue;
    }
    if (c == '"' && cur.empty()) {
      in_quotes = true;
      cur_quoted = true;
      ++i;
      continue;
    }
    if (c == sep) {
      fields.push_back(std::move(cur));
      quoted.push_back(cur_quoted);
      cur.clear();
      cur_quoted = false;
      ++i;
      continue;
    }
    cur.push_back(c);
    ++i;
  }
}

bool looks_like_int(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i >= s.size()) return false;
  for (; i < s.size(); ++i)
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  return true;
}

bool looks_like_double(const std::string& s) {
  if (s.empty()) return false;
  try {
    std::size_t pos = 0;
    (void)std::stod(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

Value parse_value(const std::string& field, bool was_quoted, ValueType type) {
  if (field.empty() && !was_quoted) return Value::null();
  switch (type) {
    case ValueType::Int:
      if (!looks_like_int(field))
        throw ExecError("csv: not an integer: '" + field + "'");
      return Value{static_cast<std::int64_t>(std::stoll(field))};
    case ValueType::Double:
      if (!looks_like_double(field))
        throw ExecError("csv: not a number: '" + field + "'");
      return Value{std::stod(field)};
    case ValueType::String:
    case ValueType::Null:
      return Value{field};
  }
  return Value{field};
}

}  // namespace

std::shared_ptr<Table> read_csv(std::istream& in, const Schema& schema,
                                const CsvOptions& opts) {
  auto t = std::make_shared<Table>(schema);
  std::vector<std::string> fields;
  std::vector<bool> quoted;
  Row cells;  // one record's cells, reused across records
  if (opts.header) {
    if (!read_record(in, opts.separator, fields, quoted))
      return t;  // empty file
    if (fields.size() != schema.size())
      throw ExecError(strf("csv: header has %zu fields, schema has %zu",
                           fields.size(), schema.size()));
  }
  std::size_t line_no = opts.header ? 1 : 0;
  while (read_record(in, opts.separator, fields, quoted)) {
    ++line_no;
    if (fields.size() == 1 && fields[0].empty() && !quoted[0])
      continue;  // blank line
    if (fields.size() != schema.size())
      throw ExecError(strf("csv: line %zu has %zu fields, expected %zu",
                           line_no, fields.size(), schema.size()));
    cells.clear();
    for (std::size_t i = 0; i < fields.size(); ++i)
      cells.push_back(parse_value(fields[i], quoted[i], schema.at(i).type));
    t->append(cells);
  }
  return t;
}

std::shared_ptr<Table> read_csv_infer(std::istream& in,
                                      const CsvOptions& opts) {
  std::vector<std::vector<std::string>> raw;
  std::vector<std::vector<bool>> raw_quoted;
  std::vector<std::string> header;
  std::vector<std::string> fields;
  std::vector<bool> quoted;
  bool first = true;
  std::size_t width = 0;
  while (read_record(in, opts.separator, fields, quoted)) {
    if (fields.size() == 1 && fields[0].empty() && !quoted[0]) continue;
    if (first && opts.header) {
      header = fields;
      width = fields.size();
      first = false;
      continue;
    }
    if (first) {
      width = fields.size();
      first = false;
    }
    if (fields.size() != width)
      throw ExecError("csv: ragged rows during inference");
    raw.push_back(fields);
    raw_quoted.push_back(quoted);
  }
  if (width == 0) throw ExecError("csv: empty input, cannot infer schema");

  Schema schema;
  for (std::size_t c = 0; c < width; ++c) {
    ValueType t = ValueType::Int;  // narrowest first
    bool any = false;
    for (std::size_t r = 0; r < raw.size(); ++r) {
      const auto& f = raw[r][c];
      if (f.empty() && !raw_quoted[r][c]) continue;  // NULL
      any = true;
      if (t == ValueType::Int && !looks_like_int(f)) t = ValueType::Double;
      if (t == ValueType::Double && !looks_like_double(f))
        t = ValueType::String;
    }
    if (!any) t = ValueType::String;
    std::string name = (c < header.size() && !header[c].empty())
                           ? to_lower(header[c])
                           : "col" + std::to_string(c);
    schema.add(std::move(name), t);
  }

  auto t = std::make_shared<Table>(schema);
  Row cells;  // one record's cells, reused across records
  for (std::size_t r = 0; r < raw.size(); ++r) {
    cells.clear();
    for (std::size_t c = 0; c < width; ++c)
      cells.push_back(parse_value(raw[r][c], raw_quoted[r][c], schema.at(c).type));
    t->append(cells);
  }
  return t;
}

void write_csv(const Table& t, std::ostream& out, const CsvOptions& opts) {
  auto emit_field = [&](const std::string& s, bool force_quote) {
    const bool need = force_quote || s.find(opts.separator) != std::string::npos ||
                      s.find('"') != std::string::npos ||
                      s.find('\n') != std::string::npos;
    if (!need) {
      out << s;
      return;
    }
    out << '"';
    for (char c : s) {
      if (c == '"') out << '"';
      out << c;
    }
    out << '"';
  };
  if (opts.header) {
    for (std::size_t i = 0; i < t.schema().size(); ++i) {
      if (i) out << opts.separator;
      emit_field(t.schema().at(i).name, false);
    }
    out << '\n';
  }
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    for (std::size_t i = 0; i < t.schema().size(); ++i) {
      if (i) out << opts.separator;
      const Value v = t.column(i).value_at(r);
      if (v.is_null()) continue;  // NULL = empty field
      // Quote empty strings so they round-trip as non-NULL.
      emit_field(v.to_string(),
                 v.type() == ValueType::String && v.as_string().empty());
    }
    out << '\n';
  }
}

std::shared_ptr<Table> read_csv_file(const std::string& path,
                                     const Schema& schema,
                                     const CsvOptions& opts) {
  std::ifstream in(path);
  if (!in) throw ExecError("csv: cannot open " + path);
  return read_csv(in, schema, opts);
}

std::shared_ptr<Table> read_csv_file_infer(const std::string& path,
                                           const CsvOptions& opts) {
  std::ifstream in(path);
  if (!in) throw ExecError("csv: cannot open " + path);
  return read_csv_infer(in, opts);
}

void write_csv_file(const Table& t, const std::string& path,
                    const CsvOptions& opts) {
  std::ofstream out(path);
  if (!out) throw ExecError("csv: cannot open " + path + " for writing");
  write_csv(t, out, opts);
}

}  // namespace ysmart
