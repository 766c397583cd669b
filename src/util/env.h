// Helpers for reading FLEXGRAPH_* knobs from the environment, so a user can
// reconfigure a run (FLEXGRAPH_SCALE=4, FLEXGRAPH_FUSE=off, ...) without
// recompiling.
//
// Every environment read in the linted tree goes through these (enforced by
// the fglint env-validated rule): raw std::getenv call sites tend to grow
// ad-hoc vocabularies that silently ignore typos, and a knob that silently
// turned an optimization on or off is invisible until someone benchmarks the
// wrong configuration.
#ifndef SRC_UTIL_ENV_H_
#define SRC_UTIL_ENV_H_

#include <cstdint>
#include <string>

namespace flexgraph {

// Returns the env var parsed as int64, or fallback when unset/unparseable.
int64_t EnvInt(const std::string& name, int64_t fallback);

// Returns the env var parsed as double, or fallback when unset/unparseable.
double EnvDouble(const std::string& name, double fallback);

// Returns the env var as a string, or fallback when unset/empty.
std::string EnvString(const std::string& name, const std::string& fallback);

// On/off knob: on|1|true → true, off|0|false → false. Anything else falls
// back to the default WITH a FLEX_LOG warning, logged once per variable per
// process — never a silent ignore.
bool EnvOnOff(const std::string& name, bool fallback);

}  // namespace flexgraph

#endif  // SRC_UTIL_ENV_H_
