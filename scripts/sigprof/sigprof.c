// LD_PRELOAD sampling profiler for the release binaries (see EXPERIMENTS.md,
// "Where the host time goes"): a SIGPROF interval timer (CPU time, 500 Hz)
// whose handler records backtrace() addresses.  At exit the samples are
// written to $SIGPROF_OUT (default sigprof.out), one per line, innermost
// frame first, after the process's memory map as '#' lines;
// scripts/sigprof/report.py symbolises them.  Single-threaded programs only.
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

#define MAX_SAMPLES 200000
#define DEPTH 48
static void *samples[MAX_SAMPLES][DEPTH];
static int depths[MAX_SAMPLES];
static volatile int nsamples = 0;

static void on_prof(int sig) {
  (void)sig;
  int i = nsamples;
  if (i >= MAX_SAMPLES) return;
  depths[i] = backtrace(samples[i], DEPTH);
  nsamples = i + 1;
}

static void dump(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char *path = getenv("SIGPROF_OUT");
  if (!path) path = "sigprof.out";
  FILE *f = fopen(path, "w");
  if (!f) return;
  // The memory map, so that the report can rebase the addresses.
  FILE *maps = fopen("/proc/self/maps", "r");
  char line[512];
  if (maps) {
    while (fgets(line, sizeof line, maps)) fprintf(f, "# %s", line);
    fclose(maps);
  }
  for (int i = 0; i < nsamples; i++) {
    // Frames 0 and 1 are this handler and the signal trampoline.
    for (int d = 2; d < depths[i]; d++) fprintf(f, "%p ", samples[i][d]);
    fprintf(f, "\n");
  }
  fclose(f);
}

__attribute__((constructor)) static void init(void) {
  void *warm[4];
  backtrace(warm, 4);  // force libgcc load outside the handler
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_prof;
  sa.sa_flags = SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = {{0, 2000}, {0, 2000}};  // 500 Hz of CPU time
  setitimer(ITIMER_PROF, &it, NULL);
  atexit(dump);
}
