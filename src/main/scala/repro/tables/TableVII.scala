package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core.{DaskMeans, KMeans}
import repro.estimator.MemoryEstimator
import repro.spatial.SpatialData

/** Table VII: the memory-tunable index — runtime and pruned vectors of
  * Dask-means under device memory budgets. The leaf capacity f is derived
  * from each budget via Eq. 12 (budgets are counted in the paper's 4-byte
  * units; ours are the paper's {15,20,30} MB scaled 1:10 with n).
  */
object TableVII {

  final case class Row(
      dataset: String,
      k: Int,
      budgetMb: Double,
      leafCapacity: Int,
      runtimeSec: Double,
      prunedVectors: Long,
  )

  def run(
      spark: SparkSession,
      n: Long = 100_000L,
      ks: Seq[Int] = Seq(100, 1000, 5000),
      budgetsMb: Seq[Double] = Seq(1.5, 2.0, 3.0),
  ): Seq[Row] = {
    val maxIters = 10
    AlgoSuite.warmUp()
    SpatialData.lowDimDatasets.flatMap { name =>
      val data = SpatialData.collectPoints(SpatialData.dataset(spark, name, n))
      val d = data(0).length
      ks.flatMap { k =>
        val init = KMeans.initCentroids(data, k, seed = 17L)
        budgetsMb.map { mb =>
          val units = (mb * 1e6 / 4).toLong // paper counts 4-byte units
          val f = MemoryEstimator
            .leafCapacityFor(n, k.toLong, d.toLong, units)
            .getOrElse(throw new IllegalArgumentException(s"budget $mb MB infeasible for n=$n"))
          val r = new DaskMeans(leafCapacity = f).run(data, k, maxIters, init)
          Row(name, k, mb, f, r.totalMs / 1000.0, r.batchPrunedVectors)
        }
      }
    }
  }

  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb ++= f"${"dataset"}%-10s ${"k"}%6s ${"budget"}%8s ${"f"}%5s ${"runtime(s)"}%11s ${"pruned"}%12s" += '\n'
    rows.foreach { r =>
      sb ++= f"${r.dataset}%-10s ${r.k}%6d ${r.budgetMb}%6.1fMB ${r.leafCapacity}%5d ${r.runtimeSec}%11.2f ${r.prunedVectors}%12d" += '\n'
    }
    sb.result()
  }
}
