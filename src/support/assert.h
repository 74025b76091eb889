// Internal invariant checking for lightnet.
//
// LN_ASSERT is for internal invariants that indicate a bug in this library
// if violated; it is active in all build types (these algorithms are subtle
// translations of proofs — silent corruption is worse than an abort).
// LN_REQUIRE is for caller-facing precondition violations and throws
// std::invalid_argument so callers and tests can handle them.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace lightnet {

// `file` from its last "src/" path component on, so a message names the
// same file whichever directory the checkout was built in (a path with no
// such component is kept whole).
inline const char* source_relative(const char* file) {
  const char* tail = file;
  for (const char* p = file; *p != '\0'; ++p)
    if ((p == file || p[-1] == '/') && p[0] == 's' && p[1] == 'r' &&
        p[2] == 'c' && p[3] == '/')
      tail = p;
  return tail;
}

[[noreturn]] inline void assertion_failure(const char* expr, const char* file,
                                           int line, const std::string& msg) {
  std::ostringstream os;
  os << "LN_ASSERT failed: " << expr << " at " << source_relative(file) << ":"
     << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::logic_error(os.str());
}

}  // namespace lightnet

#define LN_ASSERT(expr)                                                  \
  do {                                                                   \
    if (!(expr)) ::lightnet::assertion_failure(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define LN_ASSERT_MSG(expr, msg)                                         \
  do {                                                                   \
    if (!(expr))                                                         \
      ::lightnet::assertion_failure(#expr, __FILE__, __LINE__, (msg));   \
  } while (0)

#define LN_REQUIRE(expr, msg)                                            \
  do {                                                                   \
    if (!(expr)) throw std::invalid_argument((msg));                     \
  } while (0)
