// The open-file limit helper the socket-heavy tools share.

#pragma once

#include <sys/resource.h>

namespace galaxy::tools {

/// Raises the soft RLIMIT_NOFILE to the hard cap, best effort: the server
/// holds one fd per open connection and the bench client one per socket,
/// and a default soft limit of 1024 runs out long before 10k connections.
inline void RaiseFdLimit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &limit);
  }
}

}  // namespace galaxy::tools
