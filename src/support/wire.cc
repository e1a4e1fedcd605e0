#include "support/wire.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>

namespace rbx {
namespace wire {

// Multi-byte values land with one resize and direct byte stores instead of
// chaining through per-byte push_back - the encode paths (Scenario,
// ResultSet, cell batches) are sequences of these, so the per-call
// overhead is the wire layer's hot loop.
namespace {

inline std::byte* grow(std::vector<std::byte>& buf, std::size_t n) {
  const std::size_t at = buf.size();
  buf.resize(at + n);
  return buf.data() + at;
}

inline void store_le(std::byte* p, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::byte>(v >> (8 * i));
  }
}

}  // namespace

void Writer::u16(std::uint16_t v) { store_le(grow(buf_, 2), v, 2); }

void Writer::u32(std::uint32_t v) { store_le(grow(buf_, 4), v, 4); }

void Writer::u64(std::uint64_t v) { store_le(grow(buf_, 8), v, 8); }

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(const std::string& s) {
  if (s.size() > UINT32_MAX) {
    throw Error("wire: string too long to encode");
  }
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(s.data(), s.size());
}

void Writer::bytes(const void* data, std::size_t size) {
  const std::byte* p = static_cast<const std::byte*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

void Writer::f64_vec(const std::vector<double>& v) {
  if (v.size() > UINT32_MAX) {
    throw Error("wire: vector too long to encode");
  }
  u32(static_cast<std::uint32_t>(v.size()));
  std::byte* p = grow(buf_, v.size() * 8);
  for (double x : v) {
    store_le(p, std::bit_cast<std::uint64_t>(x), 8);
    p += 8;
  }
}

std::size_t Writer::begin_frame(std::uint16_t type) {
  u32(kMagic);
  u16(kVersion);
  u16(type);
  u64(0);  // patched by end_frame
  return buf_.size();
}

void Writer::end_frame(std::size_t mark) {
  if (mark < kFrameHeaderSize || mark > buf_.size()) {
    throw Error("wire: end_frame mark does not match a begin_frame");
  }
  store_le(buf_.data() + mark - 8, buf_.size() - mark, 8);
}

const std::byte* Reader::need(std::size_t n) {
  if (size_ - pos_ < n) {
    throw Error("wire: truncated data (wanted " + std::to_string(n) +
                " bytes, " + std::to_string(size_ - pos_) + " left)");
  }
  const std::byte* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Reader::u8() {
  return static_cast<std::uint8_t>(*need(1));
}

std::uint16_t Reader::u16() {
  const std::byte* p = need(2);
  return static_cast<std::uint16_t>(static_cast<std::uint8_t>(p[0]) |
                                    (static_cast<std::uint8_t>(p[1]) << 8));
}

std::uint32_t Reader::u32() {
  const std::byte* p = need(4);
  std::uint32_t v = 0;
  for (std::size_t i = 4; i-- > 0;) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

std::uint64_t Reader::u64() {
  const std::byte* p = need(8);
  std::uint64_t v = 0;
  for (std::size_t i = 8; i-- > 0;) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint32_t n = u32();
  const std::byte* p = need(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

std::vector<double> Reader::f64_vec() {
  const std::uint32_t n = u32();
  // Each element needs 8 bytes; check up front so a corrupt count fails
  // with a truncation error instead of a huge allocation.
  if (remaining() / 8 < n) {
    throw Error("wire: truncated vector (claims " + std::to_string(n) +
                " doubles, " + std::to_string(remaining()) + " bytes left)");
  }
  const std::byte* p = need(std::size_t{n} * 8);
  std::vector<double> out(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    for (std::size_t b = 8; b-- > 0;) {
      v = (v << 8) | static_cast<std::uint8_t>(p[i * 8 + b]);
    }
    out[i] = std::bit_cast<double>(v);
  }
  return out;
}

void Reader::expect_done() const {
  if (pos_ != size_) {
    throw Error("wire: " + std::to_string(size_ - pos_) +
                " trailing bytes after payload");
  }
}

std::vector<std::byte> seal_frame(std::uint16_t type,
                                  const std::vector<std::byte>& payload) {
  Writer w;
  w.reserve(kFrameHeaderSize + payload.size());
  const std::size_t mark = w.begin_frame(type);
  w.bytes(payload.data(), payload.size());
  w.end_frame(mark);
  return w.take();
}

bool parse_frame(const std::byte* data, std::size_t size, Frame* out,
                 std::size_t* consumed) {
  if (size < kFrameHeaderSize) {
    return false;
  }
  Reader header(data, kFrameHeaderSize);
  if (header.u32() != kMagic) {
    throw Error("wire: bad frame magic (not RBXW data?)");
  }
  const std::uint16_t version = header.u16();
  if (version != kVersion) {
    throw Error("wire: frame version " + std::to_string(version) +
                " (this build reads version " + std::to_string(kVersion) +
                ")");
  }
  const std::uint16_t type = header.u16();
  const std::uint64_t payload_size = header.u64();
  if (payload_size > kMaxFramePayload) {
    throw Error("wire: frame payload length " + std::to_string(payload_size) +
                " exceeds the 1 GiB cap (corrupt length field?)");
  }
  if (size - kFrameHeaderSize < payload_size) {
    return false;
  }
  out->type = type;
  out->payload.assign(data + kFrameHeaderSize,
                      data + kFrameHeaderSize + payload_size);
  *consumed = kFrameHeaderSize + static_cast<std::size_t>(payload_size);
  return true;
}

void write_file(const std::string& path, const std::vector<std::byte>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw Error("wire: cannot open '" + path + "' for writing");
  }
  const std::size_t written = std::fwrite(data.data(), 1, data.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != data.size() || !closed) {
    throw Error("wire: short write to '" + path + "'");
  }
}

void write_file_atomic(const std::string& path,
                       const std::vector<std::byte>& data) {
  // Full write to a sibling temp file, fsync, then rename over the
  // target: a reader (or a crash) sees either the old complete file or
  // the new complete file, never a torn one.
  const std::string tmp = path + ".tmp";
  int fd = -1;
  do {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    throw Error("wire: cannot open '" + tmp + "' for writing");
  }
  const std::byte* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      ::unlink(tmp.c_str());
      throw Error("wire: short write to '" + tmp + "'");
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw Error("wire: cannot replace '" + path + "' atomically");
  }
}

}  // namespace wire
}  // namespace rbx
