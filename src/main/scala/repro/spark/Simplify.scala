package repro.spark

import org.apache.spark.sql.DataFrame

/** The paper's motivating task: simplify a large spatial-vector dataset
  * into k evenly distributed representatives (Fig. 1) — run Dask-means and
  * return the k centroids with their cluster weights.
  */
object Simplify {

  /** Returns `(cluster, features, weight)` with one row per representative.
    * `weight` is the number of original vectors the representative stands
    * for (so downstream learning can resample proportionally): its members
    * at the fit's last assignment phase.
    */
  def simplify(
      df: DataFrame,
      k: Int,
      maxIters: Int = 20,
      leafCapacity: Int = 30,
      seed: Long = 42L,
  ): DataFrame = {
    val fitted = DistributedDaskMeans.fit(df, k, maxIters, leafCapacity, seed = seed)
    DistributedDaskMeans.cleanup(fitted)
    val rows = fitted.centroids.indices.map(j => (j, fitted.centroids(j).toSeq, fitted.counts(j)))
    df.sparkSession.createDataFrame(rows).toDF("cluster", "features", "weight")
  }
}
