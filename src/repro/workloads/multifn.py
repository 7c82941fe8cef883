"""Multi-function workloads (call-graph-rich programs).

The BEEBS/PARSEC-style kernels average ~1.2 defined functions, which
leaves the function-granular machinery (per-function analyses,
fingerprints, feature partials, eval-cache composition) nothing to bite on: every phase invalidates most of the
module.  These programs have 6-10 small functions each, so a typical
phase changes a few functions and leaves the rest untouched —
exercising exactly the regime the paper's PARSEC applications (and any
real program) present.  Deterministic, checksum-printing, like the
other suites.
"""

MODMATH = r"""
int gcd(int a, int b) {
  while (b != 0) { int t = b; b = a % b; a = t; }
  return a;
}

int mulmod(int a, int b, int m) {
  return (a * b) % m;
}

int powmod(int base, int exp, int m) {
  int result = 1;
  int b = base % m;
  while (exp > 0) {
    if (exp % 2 == 1) result = mulmod(result, b, m);
    b = mulmod(b, b, m);
    exp = exp / 2;
  }
  return result;
}

int is_probable_prime(int n) {
  if (n < 2) return 0;
  for (int d = 2; d * d <= n; d++) {
    if (n % d == 0) return 0;
  }
  return 1;
}

int next_prime(int n) {
  int candidate = n + 1;
  while (is_probable_prime(candidate) == 0) { candidate = candidate + 1; }
  return candidate;
}

int totient(int n) {
  int count = 0;
  for (int k = 1; k <= n; k++) {
    if (gcd(n, k) == 1) count = count + 1;
  }
  return count;
}

int main() {
  int acc = 0;
  int p = 2;
  for (int i = 0; i < 8; i++) {
    p = next_prime(p + i);
    acc = acc + powmod(3, p, 1000003);
    acc = acc % 1000003;
  }
  acc = acc + totient(36) * 17 + gcd(1071, 462);
  print_int(acc);
  print_int(powmod(7, 77, 101));
  return acc % 251;
}
"""

DSP_CHAIN = r"""
int signal[48];
int work[48];

int clip(int v, int lo, int hi) {
  if (v < lo) return lo;
  if (v > hi) return hi;
  return v;
}

int scale(int v, int num, int den) {
  return (v * num) / den;
}

int mix(int a, int b) {
  return clip(a + b, -4096, 4095);
}

int fill_signal(int seed) {
  for (int i = 0; i < 48; i++) {
    seed = iabs((seed * 1103515245 + 12345) % 2147483648);
    signal[i] = (seed % 1024) - 512;
  }
  return seed;
}

int lowpass(int taps) {
  int energy = 0;
  for (int i = taps; i < 48; i++) {
    int acc = 0;
    for (int k = 0; k < taps; k++) { acc = acc + signal[i - k]; }
    work[i] = acc / taps;
    energy = energy + iabs(work[i]);
  }
  return energy;
}

int downmix(int start) {
  int out = start;
  for (int i = 0; i < 48; i++) {
    out = mix(out, scale(work[i], 3, 7));
  }
  return out;
}

int checksum(int rounds) {
  int h = 0;
  for (int r = 0; r < rounds; r++) {
    for (int i = 0; i < 48; i++) {
      h = (h * 31 + work[i] + signal[i]) % 65521;
    }
  }
  return h;
}

int main() {
  fill_signal(2024);
  int energy = lowpass(4);
  int mixed = downmix(0);
  int h = checksum(3);
  print_int(energy);
  print_int(mixed);
  print_int(h);
  return (energy + mixed + h) % 251;
}
"""

TABLE_OPS = r"""
int table[64];
int histogram[16];

int hash_key(int key) {
  int h = key * 2654435761;
  h = iabs(h) % 1048576;
  return (h >> 4) % 64;
}

int insert(int key, int value) {
  int slot = hash_key(key);
  for (int probe = 0; probe < 64; probe++) {
    int index = (slot + probe) % 64;
    if (table[index] == 0) {
      table[index] = value;
      return index;
    }
  }
  return 0 - 1;
}

int bucket(int value) {
  int b = iabs(value) % 16;
  return b;
}

int build_histogram(int entries) {
  int filled = 0;
  for (int i = 0; i < entries; i++) {
    if (table[i] != 0) {
      int b = bucket(table[i]);
      histogram[b] = histogram[b] + 1;
      filled = filled + 1;
    }
  }
  return filled;
}

int max_bucket(int n) {
  int best = 0;
  for (int i = 0; i < n; i++) {
    best = imax(best, histogram[i]);
  }
  return best;
}

int fold_table(int n) {
  int acc = 7;
  for (int i = 0; i < n; i++) {
    acc = (acc * 131 + table[i]) % 900001;
  }
  return acc;
}

int main() {
  int seed = 99;
  for (int i = 0; i < 40; i++) {
    seed = iabs((seed * 75 + 74) % 65537);
    insert(seed, seed % 997 + 1);
  }
  int filled = build_histogram(64);
  int peak = max_bucket(16);
  int folded = fold_table(64);
  print_int(filled);
  print_int(peak);
  print_int(folded);
  return (filled * 3 + peak * 5 + folded) % 251;
}
"""

FIXED_GEOMETRY = r"""
int xs[20];
int ys[20];

int dot(int ax, int ay, int bx, int by) {
  return ax * bx + ay * by;
}

int norm2(int x, int y) {
  return dot(x, y, x, y);
}

int manhattan(int ax, int ay, int bx, int by) {
  return iabs(ax - bx) + iabs(ay - by);
}

int farthest_from_origin(int n) {
  int best = 0;
  int best_index = 0;
  for (int i = 0; i < n; i++) {
    int d = norm2(xs[i], ys[i]);
    if (d > best) { best = d; best_index = i; }
  }
  return best_index;
}

int closest_pair_distance(int n) {
  int best = 1000000000;
  for (int i = 0; i < n; i++) {
    for (int j = i + 1; j < n; j++) {
      int d = manhattan(xs[i], ys[i], xs[j], ys[j]);
      best = imin(best, d);
    }
  }
  return best;
}

int centroid_checksum(int n) {
  int sx = 0;
  int sy = 0;
  for (int i = 0; i < n; i++) { sx = sx + xs[i]; sy = sy + ys[i]; }
  return (sx / n) * 1000 + (sy / n);
}

int place_points(int seed) {
  for (int i = 0; i < 20; i++) {
    seed = iabs((seed * 1103515245 + 12345) % 2147483648);
    xs[i] = (seed % 200) - 100;
    seed = iabs((seed * 1103515245 + 12345) % 2147483648);
    ys[i] = (seed % 200) - 100;
  }
  return seed;
}

int main() {
  place_points(77);
  int far = farthest_from_origin(20);
  int close = closest_pair_distance(20);
  int centroid = centroid_checksum(20);
  print_int(far);
  print_int(close);
  print_int(centroid);
  return (far + close + iabs(centroid)) % 251;
}
"""

MULTIFN_SOURCES = {
    "modmath": MODMATH,
    "dsp_chain": DSP_CHAIN,
    "table_ops": TABLE_OPS,
    "fixed_geometry": FIXED_GEOMETRY,
}
