// Small helpers shared by the benchmark binaries: temp-file storage stacks
// and the command-line flag parser.

#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace nblb::bench {

/// A disk manager + buffer pool over a /tmp file, cleaned up on destruction.
struct TempDb {
  std::string path;
  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<BufferPool> bp;

  explicit TempDb(const std::string& tag, size_t page_size = 4096,
                  size_t frames = 8192) {
    static int counter = 0;
    path = "/tmp/nblb_bench_" + tag + "_" + std::to_string(counter++) + ".db";
    std::remove(path.c_str());
    disk.reset(new DiskManager(path, page_size));
    if (!disk->Open().ok()) std::abort();
    bp.reset(new BufferPool(disk.get(), frames));
  }

  ~TempDb() {
    bp.reset();
    disk.reset();
    std::remove(path.c_str());
  }
};

/// Command-line flags, each written --name=value. A bench asks for each of
/// its flags by name, then calls Done(): an argument it never asked for (a
/// misspelt or removed flag) stops the run with exit status 2 instead of
/// silently measuring the defaults, and so does a number that does not
/// parse.
class Flags {
 public:
  Flags(int argc, char** argv)
      : args_(argv + 1, argv + argc), used_(args_.size(), false) {}

  /// --name=N, or `fallback` when the flag is absent.
  uint64_t U64(const std::string& name, uint64_t fallback) {
    const char* v = Find(name);
    return v == nullptr ? fallback : ParseU64(name, v);
  }

  /// --name=a,b,c, or `fallback` when the flag is absent or empty.
  std::vector<uint64_t> U64List(const std::string& name,
                                std::vector<uint64_t> fallback) {
    const char* v = Find(name);
    if (v == nullptr || *v == '\0') return fallback;
    std::vector<uint64_t> out;
    std::string text(v);
    size_t begin = 0;
    for (;;) {
      const size_t comma = text.find(',', begin);
      out.push_back(ParseU64(name, text.substr(begin, comma - begin)));
      if (comma == std::string::npos) return out;
      begin = comma + 1;
    }
  }

  /// --name=text, or `fallback` when the flag is absent.
  std::string Str(const std::string& name, std::string fallback) {
    const char* v = Find(name);
    return v == nullptr ? fallback : std::string(v);
  }

  /// Exits with status 2, naming every argument no call above asked for.
  void Done() const {
    bool bad = false;
    for (size_t i = 0; i < args_.size(); ++i) {
      if (used_[i]) continue;
      std::fprintf(stderr, "unknown flag: %s\n", args_[i].c_str());
      bad = true;
    }
    if (bad) std::exit(2);
  }

 private:
  /// The text after "--name=" in the first such argument (every one is
  /// marked asked for), or nullptr.
  const char* Find(const std::string& name) {
    const std::string prefix = "--" + name + "=";
    const char* found = nullptr;
    for (size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].compare(0, prefix.size(), prefix) != 0) continue;
      used_[i] = true;
      if (found == nullptr) found = args_[i].c_str() + prefix.size();
    }
    return found;
  }

  static uint64_t ParseU64(const std::string& name, const std::string& v) {
    char* end = nullptr;
    errno = 0;
    const uint64_t n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-') {
      std::fprintf(stderr, "--%s wants an unsigned number, got \"%s\"\n",
                   name.c_str(), v.c_str());
      std::exit(2);
    }
    return n;
  }

  std::vector<std::string> args_;
  std::vector<bool> used_;
};

}  // namespace nblb::bench
