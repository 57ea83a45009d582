#include "util/loc.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace nisc::util {

LocCount count_loc(std::string_view source) {
  LocCount count;
  bool in_block_comment = false;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    std::size_t eol = source.find('\n', pos);
    std::string_view line =
        source.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    pos = (eol == std::string_view::npos) ? source.size() + 1 : eol + 1;
    if (eol == std::string_view::npos && line.empty() && pos > source.size()) break;

    bool has_code = false;
    bool has_comment = in_block_comment;
    for (std::size_t i = 0; i < line.size(); ++i) {
      char c = line[i];
      if (in_block_comment) {
        if (c == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block_comment = false;
          ++i;
        }
        continue;
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
        has_comment = true;
        break;  // rest of line is comment
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment = true;
        has_comment = true;
        ++i;
        continue;
      }
      if ((c == '#' || c == ';') && !has_code && trim(line.substr(0, i)).empty()) {
        has_comment = true;
        break;  // assembly-style full-line comment
      }
      if (!std::isspace(static_cast<unsigned char>(c))) has_code = true;
    }
    if (has_code) {
      ++count.code;
    } else if (has_comment) {
      ++count.comment;
    } else if (!trim(line).empty()) {
      ++count.code;
    } else {
      ++count.blank;
    }
  }
  return count;
}

LocCount count_loc_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw RuntimeError("count_loc_file: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return count_loc(buf.str());
}

}  // namespace nisc::util
