package repro.tables

import org.apache.spark.sql.SparkSession
import repro.spatial.SpatialData

/** Table IV: total runtime of the ten k-means algorithms on the six
  * low-dimensional datasets across k. Table V is the same runner over
  * `SpatialData.highDimDatasets`.
  */
object TableIV {

  final case class Row(dataset: String, k: Int, cells: Seq[AlgoSuite.Cell])

  /** Table IV at 1/10 of the paper's scale: n = 100k, k ∈ {100, 1000,
    * 5000}, 10 iterations.
    */
  def lowDim(spark: SparkSession): Seq[Row] =
    run(spark, SpatialData.lowDimDatasets, 100_000L, Seq(100, 1000, 5000), 10)

  /** Table V: n = 10k and k ∈ {50, 200, 500}, smaller than Table IV because
    * every distance costs d ≥ 128 multiplies; 8 iterations.
    */
  def highDim(spark: SparkSession): Seq[Row] =
    run(spark, SpatialData.highDimDatasets, 10_000L, Seq(50, 200, 500), 8)

  private def run(
      spark: SparkSession,
      datasets: Seq[String],
      n: Long,
      ks: Seq[Int],
      maxIters: Int,
  ): Seq[Row] = {
    AlgoSuite.warmUp()
    datasets.flatMap { name =>
      val data = SpatialData.collectPoints(SpatialData.dataset(spark, name, n))
      ks.map { k =>
        // cheap cells (small k) are noise-dominated: measure best-of-2
        val repeats = if (k <= 1000) 2 else 1
        Row(name, k, AlgoSuite.runAll(data, k, maxIters, repeats = repeats))
      }
    }
  }

  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb ++= AlgoSuite.header() += '\n'
    rows.foreach { r =>
      sb ++= f"${r.dataset}%-10s ${r.k}%6d " + r.cells.map(AlgoSuite.fmtCell).mkString(" ") += '\n'
    }
    sb.result()
  }
}
