#include "storage/io_ring.h"

#if NBLB_HAVE_IO_URING

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace nblb {

namespace {

int SysIoUringSetup(unsigned entries, struct io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int SysIoUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

}  // namespace

std::unique_ptr<IoRing> IoRing::TryCreate(unsigned entries) {
  if (entries == 0) entries = 1;
  struct io_uring_params p;
  std::memset(&p, 0, sizeof(p));
  const int fd = SysIoUringSetup(entries, &p);
  if (fd < 0) return nullptr;  // seccomp / sysctl / pre-5.1 kernel

  std::unique_ptr<IoRing> ring(new IoRing());
  ring->fd_ = fd;
  ring->sq_entries_ = p.sq_entries;
  ring->cq_entries_ = p.cq_entries;

  size_t sq_len = p.sq_off.array + p.sq_entries * sizeof(unsigned);
  size_t cq_len = p.cq_off.cqes + p.cq_entries * sizeof(struct io_uring_cqe);
  const bool single_mmap = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) {
    sq_len = cq_len = sq_len > cq_len ? sq_len : cq_len;
  }

  ring->sq_map_len_ = sq_len;
  ring->sq_ptr_ = ::mmap(nullptr, sq_len, PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQ_RING);
  if (ring->sq_ptr_ == MAP_FAILED) {
    ring->sq_ptr_ = nullptr;
    return nullptr;  // dtor closes fd
  }
  if (single_mmap) {
    ring->cq_ptr_ = ring->sq_ptr_;
    ring->cq_map_len_ = 0;  // owned by the sq mapping
  } else {
    ring->cq_map_len_ = cq_len;
    ring->cq_ptr_ = ::mmap(nullptr, cq_len, PROT_READ | PROT_WRITE,
                           MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_CQ_RING);
    if (ring->cq_ptr_ == MAP_FAILED) {
      ring->cq_ptr_ = nullptr;
      return nullptr;
    }
  }
  ring->sqes_map_len_ = p.sq_entries * sizeof(struct io_uring_sqe);
  void* sqes = ::mmap(nullptr, ring->sqes_map_len_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES);
  if (sqes == MAP_FAILED) return nullptr;
  ring->sqes_ = static_cast<struct io_uring_sqe*>(sqes);

  char* sq = static_cast<char*>(ring->sq_ptr_);
  ring->sq_head_ = reinterpret_cast<unsigned*>(sq + p.sq_off.head);
  ring->sq_tail_ = reinterpret_cast<unsigned*>(sq + p.sq_off.tail);
  ring->sq_mask_ = reinterpret_cast<unsigned*>(sq + p.sq_off.ring_mask);
  ring->sq_array_ = reinterpret_cast<unsigned*>(sq + p.sq_off.array);
  char* cq = static_cast<char*>(ring->cq_ptr_);
  ring->cq_head_ = reinterpret_cast<unsigned*>(cq + p.cq_off.head);
  ring->cq_tail_ = reinterpret_cast<unsigned*>(cq + p.cq_off.tail);
  ring->cq_mask_ = reinterpret_cast<unsigned*>(cq + p.cq_off.ring_mask);
  ring->cqes_ =
      reinterpret_cast<struct io_uring_cqe*>(cq + p.cq_off.cqes);

  // Identity-map the indirection array once; slot i always names sqe i, so
  // PushReadv only ever touches the sqe itself and the tail.
  for (unsigned i = 0; i < p.sq_entries; ++i) ring->sq_array_[i] = i;
  return ring;
}

IoRing::~IoRing() {
  if (sqes_ != nullptr) ::munmap(sqes_, sqes_map_len_);
  if (cq_ptr_ != nullptr && cq_map_len_ != 0) ::munmap(cq_ptr_, cq_map_len_);
  if (sq_ptr_ != nullptr) ::munmap(sq_ptr_, sq_map_len_);
  if (fd_ >= 0) ::close(fd_);
}

bool IoRing::PushOp(uint8_t opcode, int fd, const struct iovec* iov,
                    unsigned nr_iov, uint64_t offset, uint64_t user_data) {
  // Sole producer (caller-serialized): tail is ours to read relaxed, head is
  // advanced by the kernel as it consumes sqes.
  const unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
  const unsigned tail = __atomic_load_n(sq_tail_, __ATOMIC_RELAXED);
  if (tail - head >= sq_entries_) return false;
  struct io_uring_sqe* sqe = &sqes_[tail & *sq_mask_];
  std::memset(sqe, 0, sizeof(*sqe));
  sqe->opcode = opcode;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<uint64_t>(iov);
  sqe->len = nr_iov;
  sqe->off = offset;
  sqe->user_data = user_data;
  // Publish the sqe before the tail so the kernel never reads a stale entry.
  __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
  ++to_submit_;
  return true;
}

bool IoRing::PushReadv(int fd, const struct iovec* iov, unsigned nr_iov,
                       uint64_t offset, uint64_t user_data) {
  return PushOp(IORING_OP_READV, fd, iov, nr_iov, offset, user_data);
}

bool IoRing::PushWritev(int fd, const struct iovec* iov, unsigned nr_iov,
                        uint64_t offset, uint64_t user_data) {
  return PushOp(IORING_OP_WRITEV, fd, iov, nr_iov, offset, user_data);
}

int IoRing::Flush() {
  while (to_submit_ > 0) {
    const int r = SysIoUringEnter(fd_, to_submit_, 0, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -errno;
    }
    to_submit_ -= static_cast<unsigned>(r);
  }
  return 0;
}

size_t IoRing::Reap(Cqe* out, size_t max) {
  unsigned head = __atomic_load_n(cq_head_, __ATOMIC_RELAXED);
  const unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
  size_t n = 0;
  while (head != tail && n < max) {
    const struct io_uring_cqe* cqe = &cqes_[head & *cq_mask_];
    out[n].user_data = cqe->user_data;
    out[n].res = cqe->res;
    ++n;
    ++head;
  }
  if (n > 0) __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
  return n;
}

int IoRing::WaitCqe() {
  for (;;) {
    const int r = SysIoUringEnter(fd_, 0, 1, IORING_ENTER_GETEVENTS);
    if (r >= 0) return 0;
    if (errno != EINTR) return -errno;
  }
}

}  // namespace nblb

#endif  // NBLB_HAVE_IO_URING
