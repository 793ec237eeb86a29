#include "io/mapped_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>

#include "io/io_util.hpp"

namespace qdv::io {

namespace {

bool mmap_disabled() {
  const char* env = std::getenv("QDV_NO_MMAP");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// Heap fallback when mmap fails or is disabled: one EINTR-safe full read
// through io_util (the fault injector's file-site choke point).
std::vector<std::byte> read_whole_file(const std::filesystem::path& file,
                                       std::size_t size) {
  const int fd = ::open(file.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open file " + file.string());
  std::vector<std::byte> data(size);
  try {
    if (read_full(fd, data.data(), size) != size)
      throw std::runtime_error("short read from " + file.string());
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return data;
}

}  // namespace

std::shared_ptr<MappedFile> MappedFile::map(const std::filesystem::path& file) {
  auto out = std::shared_ptr<MappedFile>(new MappedFile());
  out->path_ = file;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(file, ec);
  if (ec) throw std::runtime_error("cannot stat file " + file.string());
  out->size_ = static_cast<std::size_t>(size);
  if (out->size_ == 0) return out;  // empty file: empty span, nothing to map

  if (!mmap_disabled()) {
    const int fd = ::open(file.c_str(), O_RDONLY);
    if (fd >= 0) {
      void* addr = ::mmap(nullptr, out->size_, PROT_READ, MAP_SHARED, fd, 0);
      ::close(fd);  // the mapping keeps its own reference to the file
      if (addr != MAP_FAILED) {
        out->data_ = static_cast<const std::byte*>(addr);
        out->mmapped_ = true;
        return out;
      }
    }
  }
  out->fallback_ = read_whole_file(file, out->size_);
  out->data_ = out->fallback_.data();
  return out;
}

MappedFile::~MappedFile() {
  if (mmapped_)
    ::munmap(const_cast<std::byte*>(data_), size_);
}

void MappedFile::advise_sequential() const {
  if (mmapped_)
    ::madvise(const_cast<std::byte*>(data_), size_, MADV_SEQUENTIAL);
}

void MappedFile::advise_willneed() const {
  if (mmapped_)
    ::madvise(const_cast<std::byte*>(data_), size_, MADV_WILLNEED);
}

void MappedFile::release_pages() const {
  if (mmapped_)
    ::madvise(const_cast<std::byte*>(data_), size_, MADV_DONTNEED);
}

}  // namespace qdv::io
