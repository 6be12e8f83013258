#!/usr/bin/env python3
"""Symbolise a sigprof.so dump (see sigprof.c) of a release binary built with
debug info (the workspace's release profile has `debug = true`).

    gcc -O2 -shared -fPIC -o target/sigprof.so scripts/sigprof/sigprof.c
    SIGPROF_OUT=target/run.out LD_PRELOAD=$PWD/target/sigprof.so <exe> <args>
    scripts/sigprof/report.py <exe> target/run.out [rows]

Prints, as shares of all samples:
  * categories — the three costs EXPERIMENTS.md tracks across PRs: allocator
    time, `Arc` uniqueness checks, and the shared-access validity check;
  * self time charged to the nearest function that is not std/core/alloc
    (inlined std helpers are folded into their caller; `libc<-f` is time in
    libc called from `f`, i.e. memcpy/memset/malloc);
  * inclusive time by function.
"""
import collections
import os
import re
import subprocess
import sys

exe, dump = sys.argv[1], sys.argv[2]
rows = int(sys.argv[3]) if len(sys.argv) > 3 else 25
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
        frames[cur].append(out[i])
        i += 2


def clean(name):
    name = re.sub(r'::h[0-9a-f]{16}$', '', name)
    return re.sub(r'<([^<>]|<[^<>]*>)*>', '<..>', name)


def is_std(name):
    return name.startswith(('core::', 'alloc::', 'std::', '<..>', '<alloc::', '<core::', '<std::',
                            '__rust', '__rdl', 'hashbrown'))


def chain(sample):
    """Function names of a sample, innermost first; '[libc]' outside the exe."""
    names = []
    for i, a in enumerate(sample):
        if base <= a < limit:
            names += [clean(f) for f in frames.get(offset(sample, i), [])]
        else:
            names.append('[libc]')
    return names


ALLOCATOR = ('alloc_count', '__rust_alloc', '__rust_dealloc', '__rust_realloc', '__rdl_')
UNIQUE = ('is_unique', 'Arc<..>::get_mut', 'Arc<..>::make_mut')
VALIDITY = ('ensure_valid_range', 'pages_of_range', 'page_span', 'access_trap')
cats, owner, inclusive = collections.Counter(), collections.Counter(), collections.Counter()
for s in samples:
    names = chain(s)
    own = next((n for n in names if n != '[libc]' and not is_std(n)), '?')
    owner[('libc<-' if names[0] == '[libc]' else '') + own] += 1
    for n in set(names):
        inclusive[n] += 1
    if any(k in n for n in names for k in ALLOCATOR):
        cats['allocator (any frame under the global allocator)'] += 1
    elif any(k in n for n in names[:4] for k in UNIQUE):
        cats['Arc uniqueness check (is_unique / get_mut / make_mut)'] += 1
    elif any(k in own for k in VALIDITY):
        cats['shared-access validity check (ensure_valid_range and its page split)'] += 1

n = len(samples)
print(f'{n} samples')
for title, counter, k in (('categories', cats, len(cats)), ('self', owner, rows),
                          ('inclusive', inclusive, rows)):
    print(f'--- {title}')
    for name, count in counter.most_common(k):
        print(f'{100 * count / n:6.2f}%  {count:6d}  {name}')
