package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core.BallTree
import repro.estimator.{MemoryEstimator, MemoryMeter}
import repro.spatial.SpatialData

/** Table VI: accuracy of the memory estimation method — the ratio of the
  * estimated (Eq. 11) to the actually allocated index memory, under
  * increasing k, n′ and f. Averaged over three datasets as the paper
  * averages over its suite.
  */
object TableVI {

  final case class Row(sweep: String, setting: String, accuracy: Double)

  /** accuracy := estimated / actual when the estimate undershoots (the
    * paper's case) and actual / estimated when it overshoots, so 1.0 is
    * perfect either way.
    */
  def accuracy(estBytes: Double, actBytes: Double): Double =
    if (estBytes <= actBytes) estBytes / actBytes else actBytes / estBytes

  def run(spark: SparkSession): Seq[Row] = {
    val n = 100_000L
    val datasets = Seq("T-drive", "Argo-PC", "3D-RD")
    val ks = Seq(10, 1000, 10_000, 50_000)
    val nFracs = Seq(0.01, 0.05, 0.25, 1.0)
    val fs = Seq(30, 100, 150, 200)
    val baseK = 1000
    val baseF = 30
    val rnd = new scala.util.Random(3)

    def measure(data: Array[Array[Double]], k: Int, f: Int): Double = {
      val d = data(0).length
      val pointIdx = BallTree.build(data, f)
      val centroids = Array.fill(k)(data(rnd.nextInt(data.length)).clone())
      // At f, as Eq. 11 models it, not at CentroidIndex's capped capacity.
      val centroidIdx = BallTree.build(centroids, f)
      val act = MemoryMeter.daskMeansActualBytes(pointIdx, centroidIdx, d, data.length.toLong)
      val est = MemoryEstimator.daskMeansExtraBytes(data.length.toLong, k.toLong, d.toLong, f.toLong)
      accuracy(est.toDouble, act.toDouble)
    }

    val all = datasets.map(name => SpatialData.collectPoints(SpatialData.dataset(spark, name, n)))

    val kRows = ks.map { k =>
      Row("Increasing k", s"k = $k", mean(all.map(measure(_, k, baseF))))
    }
    val nRows = nFracs.map { frac =>
      val m = (n * frac).toInt.max(100)
      Row("Increasing n", f"n' = ${frac}%.2f n", mean(all.map(d => measure(d.take(m), baseK.min(m), baseF))))
    }
    val fRows = fs.map { f =>
      Row("Increasing f", s"f = $f", mean(all.map(measure(_, baseK, f))))
    }
    kRows ++ nRows ++ fRows
  }

  private def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  def render(rows: Seq[Row]): String =
    rows.map(r => f"${r.sweep}%-14s ${r.setting}%-14s accuracy=${r.accuracy}%.3f").mkString("\n")
}
