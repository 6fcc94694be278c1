/**
 * @file
 * Versioned binary serialization of CompiledProgram for the
 * persistent compile cache.
 *
 * The daemon spills compiled artifacts to disk so a restart serves
 * the previous working set warm (the paper's morning-rush scenario:
 * the whole program set recompiles daily, and a crashed or upgraded
 * server must not recompile it all again). The format is:
 *
 *   [magic "NQCP"][u32 version][u64 payload size][u64 FNV-1a of
 *   payload][payload]
 *
 * with every multi-byte integer little-endian and doubles stored by
 * bit pattern, so blobs are portable across runs and hosts of the
 * same endianness. deserializeCompiledProgram() validates the magic,
 * version, size and checksum before touching the payload and rejects
 * anything malformed — a corrupt or stale-version cache entry is a
 * recompile, never a crash.
 */

#ifndef QC_DAEMON_PROGRAM_SERDES_HPP
#define QC_DAEMON_PROGRAM_SERDES_HPP

#include <cstdint>
#include <string>

#include "core/compiled_program.hpp"

namespace qc::daemon {

/** Current on-disk format version; bump on any payload change. */
inline constexpr std::uint32_t kProgramSerdesVersion = 1;

/** Serialize every field of a CompiledProgram into a framed blob. */
std::string serializeCompiledProgram(const CompiledProgram &program);

/**
 * Parse a framed blob back into a CompiledProgram.
 *
 * @return true and fill `out` on success; false (with `out`
 *         untouched semantics unspecified) when the blob is
 *         truncated, has a wrong magic/version, fails its checksum,
 *         or contains out-of-range enum values.
 */
bool deserializeCompiledProgram(const std::string &bytes,
                                CompiledProgram &out);

} // namespace qc::daemon

#endif // QC_DAEMON_PROGRAM_SERDES_HPP
