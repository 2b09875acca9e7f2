// Small file I/O helpers shared by the shell, benches and recorders.
#pragma once

#include <string>

namespace ysmart {

/// Write `body` (plus a trailing newline) to `path`, replacing any
/// existing file. Failures — open errors and short/failed writes alike —
/// are reported on stderr with the target path and yield false; this is
/// what the shell's exit-time YSMART_TRACE/YSMART_EVENTS writers and the
/// bench reports rely on to never fail silently.
bool write_text_file(const std::string& path, const std::string& body);

}  // namespace ysmart
