package repro.estimator

/** Minimal dense linear algebra for the cost estimator: normal-equation
  * solves with partial pivoting, with an optional ridge term for
  * conditioning.
  */
object LinAlg {

  /** Solve A x = b in place of copies (Gaussian elimination, partial
    * pivoting). Throws on a (numerically) singular system.
    */
  def solve(a: Array[Array[Double]], b: Array[Double]): Array[Double] = {
    val m = a.length
    require(m > 0 && a(0).length == m && b.length == m, "square system required")
    val mat = Array.tabulate(m)(i => a(i).clone())
    val rhs = b.clone()
    var col = 0
    while (col < m) {
      var piv = col
      var i = col + 1
      while (i < m) { if (math.abs(mat(i)(col)) > math.abs(mat(piv)(col))) piv = i; i += 1 }
      if (math.abs(mat(piv)(col)) < 1e-12) throw new ArithmeticException(s"singular at column $col")
      if (piv != col) {
        val tr = mat(piv); mat(piv) = mat(col); mat(col) = tr
        val tb = rhs(piv); rhs(piv) = rhs(col); rhs(col) = tb
      }
      i = col + 1
      while (i < m) {
        val f = mat(i)(col) / mat(col)(col)
        if (f != 0.0) {
          var j = col
          while (j < m) { mat(i)(j) -= f * mat(col)(j); j += 1 }
          rhs(i) -= f * rhs(col)
        }
        i += 1
      }
      col += 1
    }
    val x = new Array[Double](m)
    var i = m - 1
    while (i >= 0) {
      var s = rhs(i)
      var j = i + 1
      while (j < m) { s -= mat(i)(j) * x(j); j += 1 }
      x(i) = s / mat(i)(i)
      i -= 1
    }
    x
  }

  /** Ordinary/ridge least squares: argmin_b ‖X b − y‖² + λ‖b‖² via the
    * normal equations (X'X + λI) b = X'y.
    */
  def leastSquares(x: Array[Array[Double]], y: Array[Double], ridge: Double = 0.0): Array[Double] = {
    require(x.length == y.length && x.nonEmpty, "X rows must match y")
    val p = x(0).length
    val xtx = Array.fill(p)(new Array[Double](p))
    val xty = new Array[Double](p)
    var i = 0
    while (i < x.length) {
      val r = x(i)
      var a = 0
      while (a < p) {
        xty(a) += r(a) * y(i)
        var b = a
        while (b < p) { xtx(a)(b) += r(a) * r(b); b += 1 }
        a += 1
      }
      i += 1
    }
    var a = 0
    while (a < p) {
      xtx(a)(a) += ridge
      var b = a + 1
      while (b < p) { xtx(b)(a) = xtx(a)(b); b += 1 }
      a += 1
    }
    try solve(xtx, xty)
    catch {
      case _: ArithmeticException =>
        // fall back to a small ridge when the design is rank deficient
        var c = 0
        while (c < p) { xtx(c)(c) += 1e-8; c += 1 }
        solve(xtx, xty)
    }
  }

  /** Each column's max |x|, or 1 for a (numerically) all-zero column:
    * dividing by it scales the features into [-1, 1].
    */
  def maxAbsScales(xs: Array[Array[Double]]): Array[Double] =
    Array.tabulate(xs(0).length) { i =>
      val m = xs.map(r => math.abs(r(i))).max
      if (m < 1e-12) 1.0 else m
    }

  def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }
}
