#include "common/error.hpp"

#include <sstream>
#include <string_view>

namespace sap::detail {

namespace {

/// The source path relative to the project tree: from the last `src/`,
/// `tests/`, `tools/` or `bench/` path component on, so a message reads the
/// same whichever directory the library was built in. A path with none of
/// those components is cut to its file name.
std::string_view project_path(std::string_view file) {
  constexpr auto npos = std::string_view::npos;
  // Walk the components from the end: the first tail that starts with a
  // project directory is the one after its last occurrence.
  for (std::size_t pos = file.size(); pos != npos && pos > 0;) {
    pos = file.rfind('/', pos - 1);
    const std::string_view tail = file.substr(pos == npos ? 0 : pos + 1);
    for (const std::string_view dir : {"src/", "tests/", "tools/", "bench/"})
      if (tail.starts_with(dir)) return tail;
  }
  const std::size_t slash = file.rfind('/');
  return slash == npos ? file : file.substr(slash + 1);
}

}  // namespace

void raise(const std::string& message, std::source_location where) {
  std::ostringstream os;
  os << message << " [" << project_path(where.file_name()) << ':' << where.line() << " in "
     << where.function_name() << ']';
  throw Error(os.str());
}

}  // namespace sap::detail
