/**
 * @file
 * Crash-safe record journal: the shared durable-file format behind the
 * tuning cache, exploration checkpoints, and dispatch tables.
 *
 * A journal is a versioned header line followed by CRC32-framed records:
 *
 *   ftjrnl v1 <kind>\n
 *   f <payload-bytes> <crc32-hex>\n
 *   <payload bytes>\n
 *   f ...
 *
 * The payload is arbitrary bytes (newlines allowed); the frame line
 * carries its exact length and checksum, so a reader can prove each
 * record intact without trusting the payload's own structure. Because
 * frames are self-delimiting and appended in order, a crash mid-write
 * can only produce a *torn tail*: some prefix of the file is a valid
 * journal and everything after the last intact frame is garbage.
 * parseJournal() recovers exactly that prefix and reports the tear as a
 * structured diagnostic; truncateToValid() repairs the file in place so
 * later appends start from a clean frame boundary.
 *
 * Two write modes cover the adopters' needs:
 *  - JournalWriter assembles a whole journal in memory and commits it
 *    atomically (temp file + rename) — for rewrite-style stores like
 *    the tuning cache and dispatch tables.
 *  - JournalAppender appends frames to a journal file — for incremental
 *    stores like the cost model and exploration checkpoints, where
 *    losing only the in-flight frame on a crash is the contract. It
 *    validates the file once (create, foreign-kind rewrite, torn-tail
 *    truncation) and then keeps it open, so each further append costs
 *    one frame write instead of a re-read of the whole file.
 *    journalAppend() is its one-shot form: validate, append, close.
 *
 * Appending assumes one writer per journal path: nothing else may
 * write or replace the file while an appender holds it open.
 */
#ifndef FLEXTENSOR_SUPPORT_JOURNAL_H
#define FLEXTENSOR_SUPPORT_JOURNAL_H

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ft {

/** IEEE CRC-32 (the zlib polynomial) of `bytes`, seedable for chains. */
uint32_t crc32(std::string_view bytes, uint32_t seed = 0);

/** True when `bytes` begin with a journal header ("ftjrnl "). */
bool looksLikeJournal(std::string_view bytes);

/** Everything a reader learns from one journal image. */
struct JournalContents
{
    /** Header parsed and version understood. When false, the file is
     *  not a journal at all (callers fall back to legacy readers). */
    bool valid = false;
    std::string kind;                 ///< adopter format tag from header
    std::vector<std::string> records; ///< intact frame payloads, in order
    /** True when bytes remain past the last intact frame (torn tail or
     *  in-place corruption; everything before it was recovered). */
    bool torn = false;
    size_t validBytes = 0; ///< byte offset of the last intact frame end
    /** One-line structured diagnostic ("code=FT-JRNL-... ...") when the
     *  image is torn or not a valid journal; empty when clean. */
    std::string diag;
};

/** Parse a journal image; never throws. Recovery semantics above. */
JournalContents parseJournal(std::string_view bytes);

/**
 * Read and parse a journal file. A missing/unreadable file yields
 * valid=false with a diagnostic; callers decide how loud to be.
 */
JournalContents readJournal(const std::string &path);

/**
 * Truncate `path` to `contents.validBytes`, discarding a torn tail so
 * the next append starts on a frame boundary. Returns false on I/O
 * error or when contents is not a valid journal.
 */
bool truncateToValid(const std::string &path,
                     const JournalContents &contents);

/** In-memory journal assembly with an atomic temp+rename commit. */
class JournalWriter
{
  public:
    /** @param kind adopter format tag written into the header (one
     *  token, no whitespace). */
    explicit JournalWriter(std::string kind);

    /** Append one framed record. */
    void append(std::string_view payload);

    /** The serialized journal so far (header + frames). */
    const std::string &bytes() const { return buf_; }

    size_t recordCount() const { return records_; }

    /**
     * Write the journal to `path` via temp file + atomic rename, the
     * same crash-safe pattern as TuningCache::save. Returns false on
     * I/O error (the temp file is removed).
     */
    bool commit(const std::string &path) const;

  private:
    std::string buf_;
    size_t records_ = 0;
};

/** Render one frame (frame line + payload + newline). */
std::string journalFrame(std::string_view payload);

/** The header line for `kind`, newline-terminated. */
std::string journalHeader(const std::string &kind);

/**
 * Appends frames to the journal file at `path`, validating it once.
 *
 * Opening readies the file: a missing, empty, non-journal or
 * different-kind file is replaced by a fresh journal whose header and
 * first frame are committed atomically (temp file + rename); a torn
 * tail is truncated so new frames land on a valid boundary. After that
 * the file stays open in append mode and every append writes one frame
 * and flushes it (no fsync). On a write or flush error the appender
 * closes the file, and the next append validates it again.
 *
 * One writer per path: the appender trusts that the bytes it validated
 * are still what is on disk. Whoever rewrites the file (for example
 * truncateToValid() after a crash) must close() the appender first or
 * reopen it from the new parse. Not thread-safe; callers serialize.
 */
class JournalAppender
{
  public:
    /** @param kind adopter format tag (one token, no whitespace). */
    JournalAppender(std::string path, std::string kind);

    JournalAppender(const JournalAppender &) = delete;
    JournalAppender &operator=(const JournalAppender &) = delete;

    /**
     * Ready the file from `existing`, a parse of the file's current
     * bytes, without reading it again. Truncates a torn tail in place.
     * Replaces any earlier open state. False on I/O error.
     */
    bool open(const JournalContents &existing);

    /** Append one framed record; reads and readies the file first when
     *  it is not open. */
    bool append(std::string_view payload);

    /** Drop the open file; the next append validates it again. */
    void close();

  private:
    std::string path_;
    std::string kind_;
    std::ofstream out_;
    /** Validated, but the file must be created afresh with the first
     *  frame (it was missing, empty, not a journal or another kind). */
    bool fresh_ = false;
};

/**
 * Append one frame to the journal at `path`: the one-shot form of
 * JournalAppender (validate, append, close), with the same create,
 * rewrite and torn-tail rules.
 */
bool journalAppend(const std::string &path, const std::string &kind,
                   std::string_view payload);

} // namespace ft

#endif // FLEXTENSOR_SUPPORT_JOURNAL_H
