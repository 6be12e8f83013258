#!/usr/bin/env python3
"""Symbolise a sigprof.so dump (see sigprof.c) of a release binary built with
debug info (the workspace's release profile has `debug = true`).

    gcc -O2 -shared -fPIC -o target/sigprof.so scripts/sigprof/sigprof.c
    SIGPROF_OUT=target/run.out LD_PRELOAD=$PWD/target/sigprof.so <exe> <args>
    scripts/sigprof/report.py <exe> target/run.out [rows] [--under FUNC] [--lines]

Prints, as shares of the samples kept:
  * categories — the three costs EXPERIMENTS.md tracks across PRs: allocator
    time, `Arc` uniqueness checks, and the shared-access validity check;
  * self time charged to the nearest function that is not std/core/alloc
    (inlined std helpers are folded into their caller; `libc<-f` is time in
    libc called from `f`, i.e. memcpy/memset/malloc);
  * inclusive time by function.

allocprof.c writes the same format with one sample per sixteen allocator
calls instead of per 2 ms of CPU, so the same views attribute allocator
calls by call site (`ALLOCPROF_OUT` names its dump).  With
`ALLOCPROF_EVERY_BYTES=65536` it takes one sample per 64 KiB requested
instead, sizes counted as the benchmark's `alloc_mib` counts them, and the
same views attribute bytes requested by call site:

    ALLOCPROF_EVERY_BYTES=65536 ALLOCPROF_OUT=target/b.out \
        LD_PRELOAD=$PWD/target/allocprof.so <exe> <args>
    scripts/sigprof/report.py <exe> target/b.out 25 --lines

`--under FUNC` keeps only the samples with a function whose name contains
FUNC on the stack (the benchmark's timed repetitions are `--under
measure::run_rep`, its set-up `--under measure::set_up`).  `--lines` prints
instead the self time by source file and by `file:line` of that same nearest
non-std frame, which is how a hot loop is told from the function around it.
"""
import argparse
import collections
import os
import re
import signal
import subprocess
import sys

signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # `report.py ... | head` ends quietly

cli = argparse.ArgumentParser(usage='report.py <exe> <dump> [rows] [--under FUNC] [--lines]')
cli.add_argument('exe')
cli.add_argument('dump')
cli.add_argument('rows', nargs='?', type=int, default=25)
cli.add_argument('--under', metavar='FUNC')
cli.add_argument('--lines', action='store_true')
args = cli.parse_args()
exe, dump, rows = args.exe, args.dump, args.rows
real = os.path.realpath(exe)

base, samples = None, []
for line in open(dump):
    if line.startswith('#'):
        # A /proc/self/maps line: the first mapping of the executable is its
        # load base (the binaries are position-independent).
        parts = line[2:].split()
        if base is None and len(parts) >= 6 and os.path.realpath(parts[5]) == real:
            base = int(parts[0].split('-')[0], 16)
        continue
    addrs = [int(a, 16) for a in line.split()]
    if addrs:
        samples.append(addrs)
if base is None:
    sys.exit(f'{dump}: no mapping of {exe}')
limit = base + 4 * os.path.getsize(real)


def offset(sample, i):
    """File offset of frame `i`; return addresses point past the call."""
    return sample[i] - base - (1 if i else 0)


def clean(name):
    name = re.sub(r'::h[0-9a-f]{16}$', '', name)
    return re.sub(r'<([^<>]|<[^<>]*>)*>', '<..>', name)


def where(file_line):
    """`file:line` from the repository root down, without addr2line's notes."""
    path = file_line.split(' (discriminator')[0]
    return re.sub(r'^.*?/(?=(crates|benchmark|third_party)/)', '', os.path.normpath(path))


wanted = sorted({offset(s, i) for s in samples for i, a in enumerate(s) if base <= a < limit})
out = subprocess.run(['addr2line', '-a', '-i', '-f', '-C', '-e', exe] + [hex(a) for a in wanted],
                     capture_output=True, text=True, check=True).stdout.splitlines()
frames, cur, i = {}, None, 0
while i < len(out):
    if out[i].startswith('0x') and ':' not in out[i]:
        cur = int(out[i], 16)
        frames[cur] = []
        i += 1
    else:  # (function, file:line) pairs, innermost inlined function first
        frames[cur].append((clean(out[i]), where(out[i + 1])))
        i += 2


def is_std(name):
    return name.startswith(('core::', 'alloc::', 'std::', '<..>', '<alloc::', '<core::', '<std::',
                            '__rust', '__rdl', 'hashbrown'))


def chain(sample):
    """(function, file:line) of a sample's frames, innermost first; '[libc]' outside the exe."""
    found = []
    for i, a in enumerate(sample):
        if base <= a < limit:
            found += frames.get(offset(sample, i), [])
        else:
            found.append(('[libc]', '[libc]'))
    return found


ALLOCATOR = ('alloc_count', '__rust_alloc', '__rust_dealloc', '__rust_realloc', '__rdl_')
UNIQUE = ('is_unique', 'Arc<..>::get_mut', 'Arc<..>::make_mut')
VALIDITY = ('ensure_valid_range', 'pages_of_range', 'page_span', 'access_trap')
cats, owner, inclusive = collections.Counter(), collections.Counter(), collections.Counter()
by_file, by_line = collections.Counter(), collections.Counter()
n = 0
for s in samples:
    found = chain(s)
    names = [f for f, _ in found]
    if args.under and not any(args.under in f for f in names):
        continue
    n += 1
    own, at = next(((f, w) for f, w in found if f != '[libc]' and not is_std(f)), ('?', '?'))
    owner[('libc<-' if names[0] == '[libc]' else '') + own] += 1
    by_file[at.rsplit(':', 1)[0]] += 1
    by_line[f'{at}  {own}'] += 1
    for f in set(names):
        inclusive[f] += 1
    if any(k in f for f in names for k in ALLOCATOR):
        cats['allocator (any frame under the global allocator)'] += 1
    elif any(k in f for f in names[:4] for k in UNIQUE):
        cats['Arc uniqueness check (is_unique / get_mut / make_mut)'] += 1
    elif any(k in own for k in VALIDITY):
        cats['shared-access validity check (ensure_valid_range and its page split)'] += 1

print(f'{n} samples' + (f' under {args.under} (of {len(samples)})' if args.under else ''))
if not n:
    sys.exit('no samples to report')
tables = ((('self by file', by_file, rows), ('self by line', by_line, rows)) if args.lines else
          (('categories', cats, len(cats)), ('self', owner, rows), ('inclusive', inclusive, rows)))
for title, counter, k in tables:
    print(f'--- {title}')
    for name, count in counter.most_common(k):
        print(f'{100 * count / n:6.2f}%  {count:6d}  {name}')
