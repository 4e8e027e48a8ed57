package repro.baselines

import repro.core._

/** Yinyang k-means [17]: centroids are clustered once into G = ⌈k/10⌉
  * groups; each point keeps an upper bound and one lower bound per group.
  * Global filter, then per-group filter. Memory n·(G+1).
  */
final class Yinyang extends KMeansAlgo {
  override def name: String = "Yinyang"

  def groupsOf(k: Int): Int = math.max(1, (k + 9) / 10)

  override def extraMemoryFloats(n: Long, k: Long, d: Long): Long =
    n.toLong * groupsOf(k.toInt) + 2L * n

  override protected def start(
      data: Array[Array[Double]],
      k: Int,
      init: Array[Array[Double]],
      counter: DistanceCounter,
  ): KMeansAlgo.Run = new KMeansAlgo.PointRun(data) {
    private val n = data.length
    private val nG = groupsOf(k)

    // Group the initial centroids with a few Lloyd iterations (as in the
    // paper's setup); groups stay fixed afterwards.
    private val group = new Array[Int](k)
    if (nG < k) {
      val gInit = KMeans.initCentroids(init, nG, seed = 7L)
      val gRes = new Lloyd().run(init, nG, maxIters = 5, gInit)
      System.arraycopy(gRes.assignments, 0, group, 0, k)
    }
    private val members: Array[Array[Int]] = {
      val buf = Array.fill(nG)(scala.collection.mutable.ArrayBuffer.empty[Int])
      var j = 0
      while (j < k) { buf(group(j)) += j; j += 1 }
      buf.map(_.toArray)
    }

    private val u = new Array[Double](n)
    private val lb = Array.ofDim[Double](n, nG)
    private val groupDrift = new Array[Double](nG)
    // scratch per-group scan results
    private val gMinA = new Array[Double](nG)
    private val gSecA = new Array[Double](nG)
    private val gArgA = new Array[Int](nG)
    private val scanned = new Array[Boolean](nG)

    override def assign(centroids: Array[Array[Double]], it: Int, drifts: Array[Double]): Long = {
      /** Scan group g exactly; j == skipId contributes the known distance
        * skipD instead of a fresh computation.
        */
      def scanGroup(i: Int, g: Int, skipId: Int, skipD: Double): Unit = {
        var gMin = Double.PositiveInfinity; var gSecond = Double.PositiveInfinity
        var gArg = -1
        val ms = members(g)
        var x = 0
        while (x < ms.length) {
          val j = ms(x)
          val t = if (j == skipId) skipD else counter.dist(data(i), centroids(j))
          if (t < gMin) { gSecond = gMin; gMin = t; gArg = j }
          else if (t < gSecond) gSecond = t
          x += 1
        }
        gMinA(g) = gMin; gSecA(g) = gSecond; gArgA(g) = gArg; scanned(g) = true
      }

      // Loosen the bounds by the last refine's drifts.
      if (it > 0) {
        var g = 0
        while (g < nG) {
          var m = 0.0
          val ms = members(g)
          var x = 0
          while (x < ms.length) { if (drifts(ms(x)) > m) m = drifts(ms(x)); x += 1 }
          groupDrift(g) = m
          g += 1
        }
        var i = 0
        while (i < n) {
          u(i) += drifts(a(i))
          g = 0
          while (g < nG) { lb(i)(g) -= groupDrift(g); g += 1 }
          i += 1
        }
      }

      var i = 0
      while (i < n) {
        if (it == 0) {
          var best = -1; var bestD = Double.PositiveInfinity
          var g = 0
          while (g < nG) {
            scanGroup(i, g, -1, 0.0)
            if (gMinA(g) < bestD) { bestD = gMinA(g); best = gArgA(g) }
            g += 1
          }
          a(i) = best; u(i) = bestD
          g = 0
          while (g < nG) {
            lb(i)(g) = if (gArgA(g) == best) gSecA(g) else gMinA(g)
            scanned(g) = false
            g += 1
          }
        } else {
          var glb = Double.PositiveInfinity
          var g = 0
          while (g < nG) { if (lb(i)(g) < glb) glb = lb(i)(g); g += 1 }
          if (u(i) > glb) {
            u(i) = counter.dist(data(i), centroids(a(i))) // tighten
            if (u(i) > glb) {
              val oldA = a(i); val oldU = u(i)
              var best = oldA; var bestD = oldU
              g = 0
              while (g < nG) {
                if (lb(i)(g) < bestD) {
                  scanGroup(i, g, oldA, oldU)
                  if (gMinA(g) < bestD) { bestD = gMinA(g); best = gArgA(g) }
                }
                g += 1
              }
              a(i) = best; u(i) = bestD
              g = 0
              while (g < nG) {
                if (scanned(g)) {
                  lb(i)(g) = if (gArgA(g) == best) gSecA(g) else gMinA(g)
                  scanned(g) = false
                }
                g += 1
              }
              // If the demoted centroid's group was never rescanned, its
              // bound must now also cover the demoted centroid itself.
              if (best != oldA) {
                val og = group(oldA)
                if (oldU < lb(i)(og)) lb(i)(og) = oldU
              }
            }
          }
        }
        i += 1
      }
      0L
    }
  }
}
