/**
 * @file
 * Crash-safe filesystem primitives shared by every report/state emitter.
 *
 * The invariant all writers need: a reader never observes a torn file.
 * atomicWriteFile() provides it via the classic temp + fsync + rename
 * protocol — after a crash at any instruction, the destination path
 * either holds its previous content or the complete new content, never
 * a prefix. bh_bench report emission, bh_collect and bh_farm merge
 * output, and the bh_farm lease/state machinery all write through these
 * helpers.
 */

#ifndef BH_COMMON_FSIO_HH
#define BH_COMMON_FSIO_HH

#include <string>

namespace bh
{

/**
 * Atomically replace `path` with `content`: write to a sibling temp
 * file, fsync it, rename over `path`. Returns false (with a diagnostic
 * in `err`) on any IO failure; the destination is untouched in that
 * case. The temp file name embeds the pid, so concurrent writers of the
 * same path never collide on the temp — the last rename wins whole.
 */
bool atomicWriteFile(const std::string &path, const std::string &content,
                     std::string &err);

/** atomicWriteFile that fatal()s on failure, for CLI emit paths. */
void atomicWriteFileOrDie(const std::string &path,
                          const std::string &content);

/**
 * Create `path` exclusively with `content` already in place: the
 * content is written to a temp file, fsynced, then link()ed to `path`.
 * Exactly one of N concurrent callers wins; losers return false with
 * empty `err`. IO failures return false with a diagnostic in `err`.
 * A reader that can open `path` therefore always sees full content —
 * this is the lease-claim primitive.
 */
bool createExclusive(const std::string &path, const std::string &content,
                     std::string &err);

/**
 * Append `line` (a '\n' is added) to `path` with a single O_APPEND
 * write, creating the file if needed. Concurrent appenders from
 * different processes do not interleave within a line on POSIX local
 * filesystems. Best-effort durability: the line is flushed but not
 * fsynced — journals built on this are audit logs, not state of record.
 */
bool appendLine(const std::string &path, const std::string &line,
                std::string &err);

/**
 * Read a whole file into `out`. Returns false (diagnostic in `err`)
 * when the file cannot be opened or read.
 */
bool readFile(const std::string &path, std::string &out, std::string &err);

/**
 * Quarantine a corrupt file by renaming it to `path + ".corrupt"`
 * (first free of ".corrupt", ".corrupt2", ...). Returns the quarantine
 * path, or an empty string when the rename failed (e.g. the file
 * vanished — another process quarantined it first).
 */
std::string quarantineCorrupt(const std::string &path);

} // namespace bh

#endif // BH_COMMON_FSIO_HH
