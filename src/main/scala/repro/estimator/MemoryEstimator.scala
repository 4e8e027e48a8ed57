package repro.estimator

/** The paper's closed-form memory model of the accelerator (§V-A).
  *
  * Eq. 10: a balanced Ball-tree whose leaves are on average half full has
  * ⌈2n/f⌉ leaves and ⌈2n/f⌉−1 internal nodes; a leaf costs d+3+f float
  * slots (pivot, radius, count, cluster id, and f point slots), an internal
  * node d+3+2 (two child pointers instead). The paper states the d=3 case:
  * M(n,f) ≈ 2n + 28n/f − 16.
  *
  * Eq. 11 adds the centroid index and the n-integer assignment array;
  * Eq. 12 inverts the model into the memory-tunable leaf capacity f.
  */
object MemoryEstimator {

  /** The largest leaf capacity [[leafCapacityFor]] tries. */
  private val MaxLeafCapacity = 1 << 20

  /** Float slots of one index per Eq. 10, generalised to dimension d. */
  def indexFloats(n: Long, f: Long, d: Long): Long = {
    require(n >= 1 && f >= 2 && d >= 1, s"bad args n=$n f=$f d=$d")
    val leaves = (2 * n + f - 1) / f // ⌈2n/f⌉
    val internals = math.max(0L, leaves - 1)
    leaves * (d + 3 + f) + internals * (d + 3 + 2)
  }

  /** Paper's printed d=3 approximation of Eq. 10 (for documentation/tests). */
  def paperIndexFloatsApprox(n: Long, f: Long): Double = 2.0 * n + 28.0 * n / f - 16.0

  /** Eq. 11: extra float slots of Dask-means vs Lloyd — both indexes plus
    * the n-integer assignment array (counted as n slots as in the paper).
    */
  def daskMeansExtraFloats(n: Long, k: Long, d: Long, f: Long): Long =
    indexFloats(n, f, d) + indexFloats(math.max(1L, k), f, d) + n

  /** Extra memory in bytes (8 bytes per slot, 64-bit device as in the paper). */
  def daskMeansExtraBytes(n: Long, k: Long, d: Long, f: Long): Long =
    8L * daskMeansExtraFloats(n, k, d, f)

  /** Paper's printed closed form of Eq. 12 (d=3). */
  def paperLeafCapacityApprox(n: Long, k: Long, memoryFloats: Double): Double =
    28.0 * (n + k) / (memoryFloats - 3.0 * n + 32 - 2.0 * k)

  /** Eq. 12, memory-tunable index: the smallest leaf capacity f whose
    * estimated footprint fits the budget (slots). The footprint decreases
    * with f overall but not at single-step granularity (ceil jumps in the
    * leaf count vs the reserved capacity per leaf), so scan the exact
    * generalised model instead of inverting the printed approximation.
    * Returns None when no capacity up to 2^20 fits.
    */
  def leafCapacityFor(n: Long, k: Long, d: Long, budgetFloats: Long): Option[Int] = {
    // Beyond f = n the point tree is a single reserved leaf and the
    // footprint only grows — clamp the scan there.
    val fTop = math.max(2, math.min(MaxLeafCapacity.toLong, n).toInt)
    var f = 2
    while (f <= fTop) {
      if (daskMeansExtraFloats(n, k, d, f.toLong) <= budgetFloats) return Some(f)
      f += 1
    }
    None
  }
}
