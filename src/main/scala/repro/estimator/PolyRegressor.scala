package repro.estimator

/** The paper's non-linear regressor (§V-B1, Eq. 14–17): a polynomial OLS
  * model over the meta-features. With `interactions = true` the basis is
  * every monomial of total degree ≤ β (capturing coupled terms such as n·f
  * that jointly determine the index shape); with `interactions = false`
  * only single-feature powers x_i^p are used (Table VIII's "Basic
  * Feature"). Features are max-scaled before exponentiation so high degrees
  * stay conditioned; the system is solved by least squares with a tiny
  * ridge term for numerical stability at high degree.
  *
  * At `degree = 1, interactions = false, ridge = 0.1` the basis is
  * [1, x_i / scale_i]: the regularised linear model of the paper's "AutoML"
  * baseline [43] as configured in §VI-A. With ridge 1e-9 the same basis is
  * `PerIteration`'s iteration-count regressor (Eq. 13).
  */
final class PolyRegressor(val degree: Int, val interactions: Boolean, val ridge: Double = 1e-4) extends RuntimeModel {
  require(degree >= 1, "degree must be >= 1")

  private var exponents: Array[Array[Int]] = _
  private var scales: Array[Double] = _
  private var beta: Array[Double] = _

  private def buildExponents(numFeatures: Int): Array[Array[Int]] = {
    val out = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
    out += new Array[Int](numFeatures) // intercept
    if (interactions) {
      def rec(pos: Int, remaining: Int, cur: Array[Int]): Unit = {
        if (pos == numFeatures) { if (cur.sum > 0) out += cur.clone(); return }
        var e = 0
        while (e <= remaining) { cur(pos) = e; rec(pos + 1, remaining - e, cur); e = e + 1 }
        cur(pos) = 0
      }
      rec(0, degree, new Array[Int](numFeatures))
    } else {
      for (i <- 0 until numFeatures; p <- 1 to degree) {
        val e = new Array[Int](numFeatures); e(i) = p; out += e
      }
    }
    out.toArray
  }

  def numTerms: Int = if (exponents == null) -1 else exponents.length

  private def expand(x: Array[Double]): Array[Double] = {
    val scaled = Array.tabulate(x.length)(i => x(i) / scales(i))
    val row = new Array[Double](exponents.length)
    var t = 0
    while (t < exponents.length) {
      var v = 1.0
      val e = exponents(t)
      var i = 0
      while (i < e.length) {
        var p = 0
        while (p < e(i)) { v *= scaled(i); p += 1 }
        i += 1
      }
      row(t) = v
      t += 1
    }
    row
  }

  override def fit(xs: Array[Array[Double]], ys: Array[Double]): this.type = {
    require(xs.nonEmpty && xs.length == ys.length, "need matching samples")
    val nf = xs(0).length
    exponents = buildExponents(nf)
    scales = LinAlg.maxAbsScales(xs)
    val design = xs.map(expand)
    // a small ridge keeps high-degree monomial bases conditioned without
    // noticeably biasing the fit (features are max-scaled to ~[0,1])
    beta = LinAlg.leastSquares(design, ys, ridge)
    this
  }

  override def predict(x: Array[Double]): Double = {
    require(beta != null, "fit before predict")
    LinAlg.dot(expand(x), beta)
  }
}
