// IoRing: a minimal io_uring wrapper over the raw syscall ABI.
//
// Speaks <linux/io_uring.h> directly — io_uring_setup / io_uring_enter plus
// the mmap'd submission and completion rings — so the backend needs no
// liburing link dependency (liburing is a userspace convenience wrapper over
// exactly this ABI; CMake detects either header and compiles this file out
// entirely elsewhere, see NBLB_HAVE_IO_URING).
//
// Threading contract: the caller serializes the producer side (PushReadv /
// Flush) and the consumer side (Reap / WaitCqe) independently; one producer
// and one consumer may run concurrently (the ring head/tail accesses use
// acquire/release pairs against the kernel and against each other).
//
// File ops only (READV/WRITEV for DiskManager): the network server's event
// loop is epoll (src/net/server.h).
//
// Creation can fail at runtime even when compiled in — containers commonly
// seccomp-block io_uring, and kernels can disable it via the
// `io_uring_disabled` sysctl. TryCreate returns nullptr in that case and the
// DiskManager degrades to its preadv worker-thread backend.

#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <memory>

#if !NBLB_HAVE_IO_URING

namespace nblb {

/// Stub for builds without the io_uring backend (-DNBLB_IO_URING=OFF or
/// no kernel header): TryCreate always fails, so the DiskManager resolves
/// to the preadv thread fallback and never calls the other members. A
/// complete type is still needed — DiskManager holds a
/// std::unique_ptr<IoRing>.
class IoRing {
 public:
  struct Cqe {
    uint64_t user_data = 0;
    int32_t res = 0;
  };
  static std::unique_ptr<IoRing> TryCreate(unsigned) { return nullptr; }
  unsigned sq_capacity() const { return 0; }
  unsigned cq_capacity() const { return 0; }
  bool PushReadv(int, const struct iovec*, unsigned, uint64_t, uint64_t) {
    return false;
  }
  bool PushWritev(int, const struct iovec*, unsigned, uint64_t, uint64_t) {
    return false;
  }
  int Flush() { return -1; }
  size_t Reap(Cqe*, size_t) { return 0; }
  int WaitCqe() { return -1; }
};

}  // namespace nblb

#else  // NBLB_HAVE_IO_URING

#include <linux/io_uring.h>

namespace nblb {

class IoRing {
 public:
  /// \brief One reaped completion: the submitter's user_data and the op's
  /// result (bytes transferred, or -errno).
  struct Cqe {
    uint64_t user_data = 0;
    int32_t res = 0;
  };

  /// \brief Creates a ring with at least `entries` submission slots, or
  /// returns nullptr when the kernel refuses (seccomp, sysctl, old kernel).
  static std::unique_ptr<IoRing> TryCreate(unsigned entries);

  ~IoRing();
  IoRing(const IoRing&) = delete;
  IoRing& operator=(const IoRing&) = delete;

  unsigned sq_capacity() const { return sq_entries_; }
  /// In-flight ops must stay below this or completions could overflow.
  unsigned cq_capacity() const { return cq_entries_; }

  /// \brief Queues one IORING_OP_READV. `iov` must stay alive until the
  /// completion is reaped. Returns false when the SQ is full (Flush and
  /// retry).
  bool PushReadv(int fd, const struct iovec* iov, unsigned nr_iov,
                 uint64_t offset, uint64_t user_data);

  /// \brief Queues one IORING_OP_WRITEV (same contract as PushReadv: the
  /// iov — and the source buffers it points at — must stay alive until the
  /// completion is reaped; false means SQ full, Flush and retry).
  bool PushWritev(int fd, const struct iovec* iov, unsigned nr_iov,
                  uint64_t offset, uint64_t user_data);

  /// \brief Submits every queued sqe to the kernel. 0 on success, -errno.
  int Flush();

  /// \brief Reaps up to `max` available completions without blocking.
  size_t Reap(Cqe* out, size_t max);

  /// \brief Blocks until at least one completion is available (returns
  /// immediately if one already is). 0 on success, -errno.
  int WaitCqe();

 private:
  IoRing() = default;

  /// Shared producer path for PushReadv/PushWritev.
  bool PushOp(uint8_t opcode, int fd, const struct iovec* iov,
              unsigned nr_iov, uint64_t offset, uint64_t user_data);

  int fd_ = -1;
  unsigned sq_entries_ = 0;
  unsigned cq_entries_ = 0;
  unsigned to_submit_ = 0;  ///< pushed but not yet submitted

  // Mapped regions (cq may alias sq under IORING_FEAT_SINGLE_MMAP).
  void* sq_ptr_ = nullptr;
  size_t sq_map_len_ = 0;
  void* cq_ptr_ = nullptr;
  size_t cq_map_len_ = 0;
  struct io_uring_sqe* sqes_ = nullptr;
  size_t sqes_map_len_ = 0;

  // Ring field pointers into the mapped regions.
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  struct io_uring_cqe* cqes_ = nullptr;
};

}  // namespace nblb

#endif  // NBLB_HAVE_IO_URING
