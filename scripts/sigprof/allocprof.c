// LD_PRELOAD allocation-site profiler, the allocator-call counterpart of
// sigprof.c (see EXPERIMENTS.md, "Where the host time goes"): every 16th
// malloc/calloc/realloc/posix_memalign call the program makes records its
// backtrace() addresses.  The samples go to $ALLOCPROF_OUT (default
// allocprof.out) in sigprof.c's dump format — one per line, innermost frame
// first, plus the process's memory map as '#' lines, appended at exit — so
// scripts/sigprof/report.py attributes allocator calls by call site:
//
//   gcc -O2 -shared -fPIC -o target/allocprof.so scripts/sigprof/allocprof.c
//   ALLOCPROF_OUT=target/a.out LD_PRELOAD=$PWD/target/allocprof.so <exe> <args>
//   scripts/sigprof/report.py <exe> target/a.out 25 --lines
//
// Each sample stands for 16 calls (EVERY; build with -DEVERY=1 to sample
// every call).  With ALLOCPROF_EVERY_BYTES=N set, a sample stands for N
// bytes requested instead (N=65536: one per 64 KiB), so the report's
// shares attribute bytes, the benchmark's alloc_mib, rather than calls:
// sizes count as benchmark/src/alloc_count.rs counts them (malloc size,
// calloc n * size, realloc new size, posix_memalign size), and a call that
// crosses k multiples of N records its backtrace k times.  Allocations the
// hook makes itself (backtrace() loading its unwinder) are neither counted
// nor sampled.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#ifndef EVERY  // -DEVERY=1 samples every call
#define EVERY 16
#endif
#define DEPTH 48

// glibc's own entry points, which the hooks forward to.
extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);

#define TLS __thread __attribute__((tls_model("initial-exec")))
static TLS unsigned long calls;
static TLS unsigned long long bytes;  // requested since the last sample, byte mode
static TLS int busy;                  // inside a hook: the re-entry guard
static unsigned long long every_bytes;  // 0: sample every EVERY-th call

static int fd = -1;
static char buf[1 << 16];
static size_t used;

static void flush(void) {
  for (size_t done = 0; done < used;) {
    ssize_t n = write(fd, buf + done, used - done);
    if (n <= 0) break;
    done += (size_t)n;
  }
  used = 0;
}

static void put(const char *s, size_t n) {
  if (used + n > sizeof buf) flush();
  memcpy(buf + used, s, n);
  used += n;
}

// `copies` lines of "0x<hex> " addresses, skipping frame 0 (this
// function): the line starts at the hook, outside the executable, so the
// report shows each row as `libc<-f`, an allocator call made by f.
static void sample(unsigned long long copies) {
  void *frames[DEPTH];
  int depth = backtrace(frames, DEPTH);
  char line[DEPTH * 20 + 1];
  size_t n = 0;
  for (int d = 1; d < depth; d++) {
    char hex[16];
    int k = 0;
    for (unsigned long a = (unsigned long)frames[d]; k == 0 || a; a >>= 4) hex[k++] = "0123456789abcdef"[a & 15];
    line[n++] = '0';
    line[n++] = 'x';
    while (k) line[n++] = hex[--k];
    line[n++] = ' ';
  }
  line[n++] = '\n';
  while (copies--) put(line, n);
}

// Count one call of `size` bytes made by the program; sample every
// EVERY-th call, or once per every_bytes bytes in byte mode (one thread at
// a time into the shared buffer).
static char lock;
static void note(unsigned long long size) {
  if (busy || fd < 0) return;
  unsigned long long copies;
  if (every_bytes) {
    bytes += size;
    copies = bytes / every_bytes;
    bytes %= every_bytes;
  } else {
    copies = ++calls % EVERY == 0;
  }
  if (!copies) return;
  busy = 1;
  while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE)) {
  }
  sample(copies);
  __atomic_clear(&lock, __ATOMIC_RELEASE);
  busy = 0;
}

void *malloc(size_t size) {
  note(size);
  return __libc_malloc(size);
}

void *calloc(size_t n, size_t size) {
  note((unsigned long long)n * size);
  return __libc_calloc(n, size);
}

void *realloc(void *p, size_t size) {
  note(size);
  return __libc_realloc(p, size);
}

int posix_memalign(void **out, size_t align, size_t size) {
  if (align % sizeof(void *) != 0 || (align & (align - 1)) != 0) return EINVAL;
  note(size);
  void *p = __libc_memalign(align, size);
  if (!p) return ENOMEM;
  *out = p;
  return 0;
}

// The memory map, so that the report can rebase the addresses.
static void dump(void) {
  busy = 1;
  while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE)) {
  }
  int maps = open("/proc/self/maps", O_RDONLY);
  if (maps >= 0) {
    char chunk[4096];
    int at_line_start = 1;
    ssize_t n;
    while ((n = read(maps, chunk, sizeof chunk)) > 0) {
      for (ssize_t i = 0; i < n; i++) {
        if (at_line_start) put("# ", 2);
        put(&chunk[i], 1);
        at_line_start = chunk[i] == '\n';
      }
    }
    close(maps);
  }
  flush();
  close(fd);
  fd = -1;
  __atomic_clear(&lock, __ATOMIC_RELEASE);
}

__attribute__((constructor)) static void init(void) {
  busy = 1;
  void *warm[4];
  backtrace(warm, 4);  // load the unwinder before the first sample
  const char *every = getenv("ALLOCPROF_EVERY_BYTES");
  if (every) every_bytes = strtoull(every, NULL, 10);
  const char *path = getenv("ALLOCPROF_OUT");
  fd = open(path ? path : "allocprof.out", O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) atexit(dump);
  busy = 0;
}
