#include "column_log.h"

#include <iterator>

#include "common/error.h"
#include "common/fnv.h"

namespace carbonx::column_log
{

namespace
{

/** The header's fixed-width fields in file order (no padding). */
struct Fixed
{
    Magic magic;
    uint32_t version;
    uint32_t columns;
    uint64_t config_digest;
    uint32_t provenance_size;
    uint32_t reserved;
};
static_assert(sizeof(Fixed) == 32);

/** An oversized provenance length is itself corruption. */
constexpr uint32_t kMaxProvenance = 1u << 20;

/** Write a trivially copyable value's bytes. */
template <typename T>
void
put(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

/** Read a trivially copyable value; false on short read. */
template <typename T>
bool
get(std::istream &is, T &value)
{
    return static_cast<bool>(
        is.read(reinterpret_cast<char *>(&value), sizeof(T)));
}

uint64_t
headerDigest(const Fixed &fixed, const std::string &provenance)
{
    return fnv1a64String(provenance, fnv1a64Bytes(&fixed, sizeof(fixed)));
}

uint64_t
blockDigest(uint32_t block_magic, uint32_t rows,
            const std::vector<uint64_t> &cells)
{
    uint64_t digest = fnv1a64Bytes(&block_magic, sizeof(block_magic));
    digest = fnv1a64Bytes(&rows, sizeof(rows), digest);
    return fnv1a64Bytes(cells.data(), cells.size() * sizeof(uint64_t),
                        digest);
}

} // namespace

const char *
describe(Status status)
{
    static constexpr const char *kText[] = {
        "ok", "end of file", "truncated header", "bad magic",
        "implausible provenance size", "truncated provenance",
        "truncated header digest", "header digest mismatch",
        "unreadable block header", "bad block header",
        "block larger than file", "truncated block",
        "block digest mismatch"};
    static_assert(std::size(kText) ==
                  static_cast<size_t>(Status::BlockDigestMismatch) + 1);
    return kText[static_cast<size_t>(status)];
}

uint64_t
writeHeader(const std::string &path, const Header &header)
{
    const Fixed fixed{header.magic, header.version, header.columns,
                      header.config_digest,
                      static_cast<uint32_t>(header.provenance.size()), 0};
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    require(os.is_open(), "cannot write " + path);
    put(os, fixed);
    os << header.provenance;
    put(os, headerDigest(fixed, header.provenance));
    os.flush();
    require(os.good(), "write failed: " + path);
    return sizeof(fixed) + header.provenance.size() + sizeof(uint64_t);
}

uint64_t
writeBlock(const std::string &path, uint64_t offset, uint32_t block_magic,
           uint32_t rows, const std::vector<uint64_t> &cells)
{
    std::ofstream os(path, std::ios::binary | std::ios::in | std::ios::out);
    require(os.is_open(), "cannot append to " + path);
    os.seekp(static_cast<std::streamoff>(offset));
    put(os, block_magic);
    put(os, rows);
    os.write(reinterpret_cast<const char *>(cells.data()),
             static_cast<std::streamsize>(cells.size() *
                                          sizeof(uint64_t)));
    put(os, blockDigest(block_magic, rows, cells));
    os.flush();
    require(os.good(), "append failed: " + path);
    return 2 * sizeof(uint32_t) + (cells.size() + 1) * sizeof(uint64_t);
}

Reader::Reader(const std::string &path) : is_(path, std::ios::binary)
{
    if (!is_.is_open())
        return;
    is_.seekg(0, std::ios::end);
    file_size_ = static_cast<uint64_t>(is_.tellg());
    is_.seekg(0, std::ios::beg);
}

Status
Reader::readHeader(const Magic &magic, Header &header)
{
    Fixed fixed{};
    if (!get(is_, fixed))
        return Status::TruncatedHeader;
    if (fixed.magic != magic)
        return Status::BadMagic;
    // Bound the length before allocating for it.
    if (fixed.provenance_size > kMaxProvenance)
        return Status::ImplausibleProvenance;
    std::string provenance(fixed.provenance_size, '\0');
    if (!is_.read(provenance.data(), fixed.provenance_size))
        return Status::TruncatedProvenance;
    uint64_t digest = 0;
    if (!get(is_, digest))
        return Status::TruncatedHeaderDigest;
    if (digest != headerDigest(fixed, provenance))
        return Status::HeaderDigestMismatch;
    header = {fixed.magic, fixed.version, fixed.columns,
              fixed.config_digest, std::move(provenance)};
    valid_bytes_ = static_cast<uint64_t>(is_.tellg());
    return Status::Ok;
}

Status
Reader::nextBlock(uint32_t block_magic, uint32_t columns,
                  std::vector<uint64_t> &cells)
{
    uint32_t magic = 0;
    uint32_t rows = 0;
    if (!get(is_, magic)) {
        if (is_.eof() && is_.gcount() == 0)
            return Status::End;
        return Status::UnreadableBlockHeader;
    }
    if (magic != block_magic || !get(is_, rows) || rows == 0)
        return Status::BadBlockHeader;
    // A corrupted count would otherwise size a huge allocation; the
    // block (plus its digest) must fit in the bytes left.
    const uint64_t bytes =
        static_cast<uint64_t>(rows) * columns * sizeof(uint64_t);
    const uint64_t pos = valid_bytes_ + 2 * sizeof(uint32_t);
    if (bytes + sizeof(uint64_t) > file_size_ - pos)
        return Status::BlockLargerThanFile;
    cells.resize(static_cast<size_t>(rows) * columns);
    uint64_t digest = 0;
    if (!is_.read(reinterpret_cast<char *>(cells.data()),
                  static_cast<std::streamsize>(bytes)) ||
        !get(is_, digest))
        return Status::TruncatedBlock;
    if (digest != blockDigest(block_magic, rows, cells))
        return Status::BlockDigestMismatch;
    valid_bytes_ = pos + bytes + sizeof(uint64_t);
    return Status::Ok;
}

} // namespace carbonx::column_log
